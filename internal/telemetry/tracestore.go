package telemetry

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"
)

// TraceRecord is one retained trace: its root request window plus every
// span the tail sampler committed (late spans append after the fact).
type TraceRecord struct {
	Trace    TraceID       `json:"trace"`
	Root     SpanID        `json:"root"`
	Err      bool          `json:"err,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durationNs"`
	Spans    []SpanRecord  `json:"spans"`
}

// storeStripes shards the trace store; must be a power of two.
const storeStripes = 8

// spanBuf holds finished spans and their attributes. A reset buffer keeps
// its capacity, so refilling it allocates nothing once warm.
type spanBuf struct {
	spans []SpanRecord
	attrs []SpanAttr
}

func (b *spanBuf) reset() { b.spans, b.attrs = b.spans[:0], b.attrs[:0] }

// add appends r, copying its attributes in, unless max spans are held.
// r.Attrs may point into a live span, so no stored record keeps it, even
// empty: it would pin the span's Scope or job context.
func (b *spanBuf) add(r SpanRecord, max int) bool {
	if len(b.spans) >= max {
		return false
	}
	if n := len(b.attrs); len(r.Attrs) > 0 {
		b.attrs = append(b.attrs, r.Attrs...)
		r.Attrs = b.attrs[n:len(b.attrs):len(b.attrs)]
	} else {
		r.Attrs = nil
	}
	b.spans = append(b.spans, r)
	return true
}

// traceSlot is one retained trace.
type traceSlot struct {
	trace TraceRef
	root  SpanID
	err   bool
	start time.Time
	dur   time.Duration
	buf   spanBuf
}

// storeStripe is a fixed ring of slots; once full, the next slot to fill
// holds the oldest trace.
type storeStripe struct {
	mu    sync.Mutex
	slots []traceSlot
	next  int // the slot the next new trace takes
	used  int // slots [0, used) hold a trace
}

// TraceStore is a bounded, lock-striped in-process store of retained
// traces. Bound: Capacity traces of at most MaxSpans spans each; a full
// stripe evicts its oldest trace, counted so retention loss is never
// silent. Requests joining the same client-minted trace merge into one.
type TraceStore struct {
	stripes  [storeStripes]storeStripe
	maxSpans int
	evicted  Counter
	overflow *Counter // the tracer's span-overflow counter
}

// DefaultTraceCapacity is the store bound when TracerOptions.Capacity is
// unset.
const DefaultTraceCapacity = 512

// NewTraceStore builds a store holding about cap traces (default
// DefaultTraceCapacity; minimum one per stripe).
func NewTraceStore(capacity int) *TraceStore {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	s := &TraceStore{maxSpans: 256}
	for i := range s.stripes {
		s.stripes[i].slots = make([]traceSlot, max(capacity/storeStripes, 1))
	}
	return s
}

// stripe picks trace's stripe; an ID not minted here goes through fnv-1a.
func (s *TraceStore) stripe(trace TraceRef) *storeStripe {
	h := trace.id
	if h == 0 {
		h = 14695981039346656037
		for i := 0; i < len(trace.ext); i++ {
			h = (h ^ uint64(trace.ext[i])) * 1099511628211
		}
	}
	return &s.stripes[h&(storeStripes-1)]
}

// find returns the slot holding trace, or nil; st.mu is held. A stripe
// holds tens of slots.
func (st *storeStripe) find(trace TraceRef) *traceSlot {
	for i := 0; i < st.used; i++ {
		if st.slots[i].trace == trace {
			return &st.slots[i]
		}
	}
	return nil
}

// add appends one span to a slot, counting it when the slot is full.
func (s *TraceStore) add(sl *traceSlot, r SpanRecord) {
	sl.err = sl.err || r.Err != ""
	if !sl.buf.add(r, s.maxSpans) {
		s.overflow.Inc()
	}
}

// extend widens the slot's window to end no earlier than start+d and,
// with from, to begin no later than start.
func (sl *traceSlot) extend(start time.Time, d time.Duration, from bool) {
	end := sl.start.Add(sl.dur)
	if e := start.Add(d); e.After(end) {
		end = e
	}
	if from && start.Before(sl.start) {
		sl.start = start
	}
	sl.dur = end.Sub(sl.start)
}

// put stores a trace, merging into any existing record for the same
// trace: spans append, the error bit ORs, and the trace window extends to
// cover both requests. A full stripe evicts its oldest trace.
func (s *TraceStore) put(trace TraceRef, root SpanID, err bool, start time.Time, d time.Duration, spans []SpanRecord) {
	st := s.stripe(trace)
	st.mu.Lock()
	defer st.mu.Unlock()
	sl := st.find(trace)
	if sl == nil {
		sl = &st.slots[st.next]
		st.next = (st.next + 1) % len(st.slots)
		if st.used < len(st.slots) {
			st.used++
		} else {
			s.evicted.Inc()
		}
		sl.trace, sl.root, sl.err, sl.start, sl.dur = trace, root, false, start, d
		sl.buf.reset()
	}
	sl.extend(start, d, true)
	sl.err = sl.err || err
	for _, r := range spans {
		s.add(sl, r)
	}
}

// appendSpan adds a late span to an already-stored trace, extending the
// trace window to cover it. It reports whether the trace was present.
func (s *TraceStore) appendSpan(trace TraceRef, rec SpanRecord) bool {
	if s == nil {
		return false
	}
	st := s.stripe(trace)
	st.mu.Lock()
	defer st.mu.Unlock()
	sl := st.find(trace)
	if sl != nil {
		s.add(sl, rec)
		sl.extend(rec.Start, rec.Duration, false)
	}
	return sl != nil
}

// record renders the slot as a TraceRecord that shares nothing with it.
func (sl *traceSlot) record() TraceRecord {
	var cp spanBuf
	for _, r := range sl.buf.spans {
		cp.add(r, len(sl.buf.spans))
	}
	return TraceRecord{Trace: sl.trace.ID(), Root: sl.root, Err: sl.err, Start: sl.start, Duration: sl.dur, Spans: cp.spans}
}

// Get returns a deep copy of the stored trace, or false.
func (s *TraceStore) Get(trace TraceID) (TraceRecord, bool) {
	if s == nil {
		return TraceRecord{}, false
	}
	ref := RefOf(trace)
	st := s.stripe(ref)
	st.mu.Lock()
	defer st.mu.Unlock()
	if sl := st.find(ref); sl != nil {
		return sl.record(), true
	}
	return TraceRecord{}, false
}

// Snapshot returns deep copies of every stored trace, newest first.
func (s *TraceStore) Snapshot() []TraceRecord {
	if s == nil {
		return nil
	}
	var out []TraceRecord
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for j := 0; j < st.used; j++ {
			out = append(out, st.slots[j].record())
		}
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

// Len returns the number of stored traces.
func (s *TraceStore) Len() int {
	if s == nil {
		return 0
	}
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		n += st.used
		st.mu.Unlock()
	}
	return n
}

// Evicted returns the count of traces dropped to make room.
func (s *TraceStore) Evicted() int64 {
	if s == nil {
		return 0
	}
	return s.evicted.Value()
}

// traceDebugPayload is the /debug/traces JSON shape.
type traceDebugPayload struct {
	Traces    []TraceRecord   `json:"traces"`
	Evicted   int64           `json:"evicted"`
	Exemplars []debugExemplar `json:"exemplars,omitempty"`
}

type debugExemplar struct {
	Metric string        `json:"metric"`
	Labels []Label       `json:"labels,omitempty"`
	Bucket string        `json:"bucketLe"`
	Trace  TraceID       `json:"trace"`
	Value  time.Duration `json:"valueNs"`
}

// TraceDebugHandler serves the tracer's retained traces (newest first) as
// JSON, together with trace-ID exemplars gathered from reg's latency
// histograms — the glue from a p99 bucket to a concrete trace.
func TraceDebugHandler(t *Tracer, reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var payload traceDebugPayload
		if t != nil {
			payload.Traces = t.Store().Snapshot()
			payload.Evicted = t.Store().Evicted()
		}
		if payload.Traces == nil {
			payload.Traces = []TraceRecord{}
		}
		for _, p := range reg.Snapshot() {
			if p.Kind != KindHistogram {
				continue
			}
			for i, ex := range p.Hist.Exemplars {
				if ex == nil {
					continue
				}
				le := "+Inf"
				if i < NumBuckets {
					le = BucketBound(i).String()
				}
				payload.Exemplars = append(payload.Exemplars, debugExemplar{
					Metric: p.Name,
					Labels: p.Labels,
					Bucket: le,
					Trace:  ex.Trace,
					Value:  ex.Value,
				})
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(payload)
	})
}

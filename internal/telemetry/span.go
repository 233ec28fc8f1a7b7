package telemetry

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Distributed tracing rides on the trace-ID plumbing that already existed
// (TraceID in every log record): a Tracer mints spans with parent links,
// start times, durations, status, and a bounded attribute set; span trees
// accumulate per root request and are tail-sampled into a lock-striped
// in-process TraceStore when the root span ends. Requests arriving with a
// wire-propagated trace context (see wire.EncodeTraceCtx) join the
// caller's trace instead of minting their own, so a GIIS-style nested
// query produces one coherent multi-hop tree.
//
// A warm traced request allocates nothing: a span is its own context, a
// request's spans come from its reused Scope, and a kept tree is copied
// into a reused store slot. The disarmed path — no span in the context
// chain — costs one context lookup: StartSpan returns (ctx, nil) and
// every Span method is safe on a nil receiver.

// SpanID identifies one span within a trace. Zero means "no span".
type SpanID uint64

// NewSpanID mints a random non-zero span ID from the per-P rand source.
func NewSpanID() SpanID {
	for {
		if id := SpanID(rand.Uint64()); id != 0 {
			return id
		}
	}
}

// String renders the ID as 16 hex digits ("" for the zero ID).
func (id SpanID) String() string {
	if id == 0 {
		return ""
	}
	var b [16]byte
	return string(appendHex16(b[:0], uint64(id)))
}

// MarshalJSON renders the ID as a quoted hex string.
func (id SpanID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// MaxSpanAttrs bounds the attributes one span can carry; SetAttr calls
// past the bound are dropped so a hot loop cannot balloon a span.
const MaxSpanAttrs = 8

// SpanAttr is one key-value annotation on a span.
type SpanAttr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is the immutable, stored form of a finished span.
type SpanRecord struct {
	ID       SpanID        `json:"id"`
	Parent   SpanID        `json:"parent,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durationNs"`
	Err      string        `json:"err,omitempty"`
	Attrs    []SpanAttr    `json:"attrs,omitempty"`
}

// arena hands out the spans of a Scope or a detached context from a fixed
// array, and from the heap once that is used up.
type arena struct {
	spans []Span
	next  atomic.Int32
}

func (a *arena) take() *Span {
	if a != nil {
		if i := int(a.next.Add(1)) - 1; i < len(a.spans) {
			return &a.spans[i]
		}
	}
	return new(Span)
}

// Span is one in-flight timed operation, and the context of the work
// under it: it answers for itself as the current span and delegates the
// rest to the context it was started under. All Span methods are safe on
// a nil receiver, which is what StartSpan returns when tracing is
// disarmed.
type Span struct {
	context.Context // the context the span was started under

	tracer *Tracer // nil: the span only carries its trace
	sc     *Scope  // the request whose tree the span joins
	gen    uint64  // sc's generation when that request began
	kids   *arena  // where the span's children come from
	trace  TraceRef
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	attrs  [MaxSpanAttrs]SpanAttr
	nattrs int
	errMsg string
	ended  atomic.Bool
	root   bool
}

// Value answers the package's key with the span itself.
func (s *Span) Value(key any) any {
	if key == (ctxKey{}) {
		return s
	}
	return s.Context.Value(key)
}

// Trace returns the span's trace ID ("" on nil).
func (s *Span) Trace() TraceID {
	if s == nil {
		return ""
	}
	return s.trace.ID()
}

// ID returns the span's ID (0 on nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// Parent returns the parent span's ID (0 on nil or for a root).
func (s *Span) Parent() SpanID {
	if s == nil {
		return 0
	}
	return s.parent
}

// SetAttr annotates the span; attributes past MaxSpanAttrs are dropped.
// Not safe for concurrent use on the same span.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.nattrs >= MaxSpanAttrs {
		return
	}
	s.attrs[s.nattrs] = SpanAttr{Key: key, Value: value}
	s.nattrs++
}

// Fail marks the span errored; an errored span forces its whole trace to
// be retained by tail sampling.
func (s *Span) Fail(msg string) {
	if s == nil {
		return
	}
	if msg == "" {
		msg = "error"
	}
	s.errMsg = msg
}

// End finishes the span and records it into its trace. Ending a span
// twice (or ending nil) is a no-op.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.tracer.finish(s, s.tracer.clock())
}

// begin initializes s, fresh or reused, as a span of t under ctx.
func (s *Span) begin(ctx context.Context, t *Tracer, sc *Scope, gen uint64, kids *arena, trace TraceRef, parent SpanID, name string) {
	s.Context, s.tracer, s.sc, s.gen, s.kids = ctx, t, sc, gen, kids
	s.trace, s.id, s.parent, s.name, s.start = trace, NewSpanID(), parent, name, t.clock()
	s.nattrs, s.errMsg, s.root = 0, "", false
	s.ended.Store(false)
}

// SpanFrom extracts the current span from ctx (nil when absent).
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	if s, _ := ctx.Value(ctxKey{}).(*Span); s != nil && s.tracer != nil {
		return s
	}
	return nil
}

// StartSpan starts a child of the context's current span; the child is
// the returned context. When the context carries no span (tracing
// disarmed) it returns (ctx, nil) at the cost of one context lookup and
// zero allocations; the nil span accepts SetAttr/Fail/End as no-ops.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.kids.take()
	s.begin(ctx, parent.tracer, parent.sc, parent.gen, parent.kids, parent.trace, parent.id, name)
	return s, s
}

// scopeSpans is how many spans a request takes from its Scope before it
// allocates: a cold eight-keyword query has seventeen.
const scopeSpans = 24

// Scope is one request's trace bookkeeping: its root span, the spans
// below it, and the records of those finished before the root. The
// session that serves the request reuses it for a later request once the
// root has ended and the handler has returned, so nothing may keep the
// request's context past that: work that outlives the request takes
// Detach's copy. The zero value is ready.
type Scope struct {
	root  Span
	kids  arena
	spans [scopeSpans]Span

	mu   sync.Mutex
	gen  uint64 // bumped per request, so a late span finds its own
	buf  spanBuf
	err  bool
	done bool // the root ended: the tree went to the store or was dropped
}

// detached is the context Detach returns. Its spans array holds the work's
// first spans: a journaled job's attempt, its ACTIVE and its final state.
type detached struct {
	context.Context
	span  Span // the request's span, copied
	kids  arena
	spans [4]Span
}

func (d *detached) Value(key any) any {
	if key == (ctxKey{}) {
		if d.span.trace.IsZero() {
			return nil
		}
		return &d.span
	}
	return d.Context.Value(key)
}

// Detach returns a cancellable context for work that outlives the request
// of ctx — a SUBMIT's job. It copies ctx's trace and current span, so the
// work's spans join the request's tree, or its stored trace once the
// request is over; it takes nothing else from ctx, so neither the end of
// the request nor the reuse of its Scope can cancel or corrupt the work.
// It costs the same allocations traced or not.
func Detach(ctx context.Context) (context.Context, context.CancelFunc) {
	d := &detached{}
	var cancel context.CancelFunc
	d.Context, cancel = context.WithCancel(context.Background())
	switch p := ctx.Value(ctxKey{}).(type) {
	case *Span:
		d.kids.spans = d.spans[:]
		s := &d.span
		s.Context, s.tracer, s.sc, s.gen, s.kids = d.Context, p.tracer, p.sc, p.gen, &d.kids
		s.trace, s.id, s.parent, s.name, s.start = p.trace, p.id, p.parent, p.name, p.start
		s.ended.Store(true) // the copy is a parent, never recorded
	case TraceRef:
		d.span.Context, d.span.trace = d.Context, p
	}
	return d, cancel
}

// TracerOptions configures a Tracer. The zero value traces everything
// into a default-sized store.
type TracerOptions struct {
	// SampleRate is the probability that a trace with no error and no
	// slow-threshold hit is kept. Exactly 0 means the default of 1.0
	// (keep everything); pass a negative rate to keep only errored and
	// slow traces. Values above 1 clamp to 1.
	SampleRate float64
	// SlowThreshold retains every trace whose root span lasts at least
	// this long, regardless of SampleRate. Zero disables the rule.
	SlowThreshold time.Duration
	// Capacity bounds the trace store (default 512 traces); the oldest
	// trace is evicted when full.
	Capacity int
	// MaxSpans bounds the spans buffered per trace (default 256); spans
	// past the bound are counted, not stored.
	MaxSpans int
	// Telemetry, when set, receives the tracer's drop/keep counters.
	Telemetry *Registry
	// Clock, when set, replaces time.Now for span timestamps (tests).
	Clock func() time.Time
}

// Tracer mints spans, buffers them per trace, and tail-samples finished
// traces into its store. All methods are safe on a nil receiver.
type Tracer struct {
	sample   float64
	slow     time.Duration
	maxSpans int
	clock    func() time.Time
	store    *TraceStore

	spansTotal    *Counter
	tracesKept    *Counter
	tracesSampled *Counter // sampled out (dropped by probability)
	spansOverflow *Counter
	spansLate     *Counter // finished after root finalize, trace dropped
}

// NewTracer builds a tracer from opts.
func NewTracer(opts TracerOptions) *Tracer {
	sample := opts.SampleRate
	switch {
	case sample == 0:
		sample = 1
	case sample < 0:
		sample = 0
	case sample > 1:
		sample = 1
	}
	maxSpans := opts.MaxSpans
	if maxSpans <= 0 {
		maxSpans = 256
	}
	clk := opts.Clock
	if clk == nil {
		clk = time.Now
	}
	t := &Tracer{
		sample:   sample,
		slow:     opts.SlowThreshold,
		maxSpans: maxSpans,
		clock:    clk,
		store:    NewTraceStore(opts.Capacity),
	}
	if reg := opts.Telemetry; reg != nil {
		t.spansTotal = reg.Counter("infogram_trace_spans_total", "spans finished across all traces")
		t.tracesKept = reg.Counter("infogram_traces_kept_total", "traces retained by tail sampling")
		t.tracesSampled = reg.Counter("infogram_traces_dropped_total", "healthy traces dropped by probabilistic sampling")
		t.spansOverflow = reg.Counter("infogram_trace_spans_overflow_total", "spans dropped because their trace hit the per-trace span bound")
		t.spansLate = reg.Counter("infogram_trace_spans_late_dropped_total", "late spans dropped because their trace was not retained")
	}
	t.store.maxSpans, t.store.overflow = maxSpans, t.spansOverflow
	return t
}

// Store exposes the tracer's trace store (nil on a nil tracer).
func (t *Tracer) Store() *TraceStore {
	if t == nil {
		return nil
	}
	return t.store
}

// Begin roots a request's span tree in sc, which the caller reuses from
// request to request, so that tracing the request allocates nothing. The
// root joins a caller's trace and parent span; a zero trace mints a fresh
// one. The root span is also the request's context. On a nil tracer it
// returns (ctx, nil).
func (t *Tracer) Begin(ctx context.Context, sc *Scope, trace TraceRef, parent SpanID, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if trace.IsZero() {
		trace = NewTraceRef()
	}
	sc.mu.Lock()
	sc.gen++
	gen := sc.gen
	sc.buf.reset()
	sc.err, sc.done = false, false
	sc.mu.Unlock()
	sc.kids.spans = sc.spans[:]
	sc.kids.next.Store(0)
	s := &sc.root
	s.begin(ctx, t, sc, gen, &sc.kids, trace, parent, name)
	s.root = true
	return s, s
}

// RecordSpan records a pre-measured operation (e.g. the GSI handshake,
// timed before any trace existed) as a finished child of parent. Nil
// parent or nil tracer is a no-op.
func (t *Tracer) RecordSpan(parent *Span, name string, start time.Time, d time.Duration, errMsg string) {
	if t == nil || parent == nil {
		return
	}
	_, s := StartSpan(parent, name)
	s.start, s.errMsg = start, errMsg
	s.ended.Store(true)
	t.finish(s, start.Add(d))
}

// finish records the span into its request's buffer while the request is
// in flight — the root's finish then tail-samples the tree — and, once the
// root has ended (e.g. the job a SUBMIT spawned), straight into the stored
// trace when it was kept, counting the drop otherwise.
func (t *Tracer) finish(s *Span, end time.Time) {
	t.spansTotal.Inc()
	rec := SpanRecord{
		ID:       s.id,
		Parent:   s.parent,
		Name:     s.name,
		Start:    s.start,
		Duration: max(end.Sub(s.start), 0),
		Err:      s.errMsg,
		Attrs:    s.attrs[:s.nattrs:s.nattrs],
	}
	if sc := s.sc; sc != nil {
		sc.mu.Lock()
		if sc.gen == s.gen && !sc.done {
			sc.err = sc.err || rec.Err != ""
			if !sc.buf.add(rec, t.maxSpans) {
				t.spansOverflow.Inc()
			}
			if s.root {
				t.commit(sc, s, rec.Duration)
			}
			sc.mu.Unlock()
			return
		}
		sc.mu.Unlock()
	}
	if !t.store.appendSpan(s.trace, rec) {
		t.spansLate.Inc()
	}
}

// commit tail-samples the tree whose root just ended; sc.mu is held.
func (t *Tracer) commit(sc *Scope, root *Span, d time.Duration) {
	sc.done = true
	if !sc.err && (t.slow <= 0 || d < t.slow) && !t.sampleHit() {
		t.tracesSampled.Inc()
		return
	}
	t.tracesKept.Inc()
	t.store.put(root.trace, root.id, sc.err, root.start, d, sc.buf.spans)
}

func (t *Tracer) sampleHit() bool {
	if t.sample >= 1 {
		return true
	}
	if t.sample <= 0 {
		return false
	}
	return rand.Float64() < t.sample
}

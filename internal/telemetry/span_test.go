package telemetry

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// startTrace roots a fresh trace in a Scope of its own.
func startTrace(tr *Tracer, name string) (context.Context, *Span) {
	return tr.Begin(context.Background(), new(Scope), TraceRef{}, 0, name)
}

func TestSpanIDString(t *testing.T) {
	if got := SpanID(0).String(); got != "" {
		t.Errorf("zero ID = %q, want empty", got)
	}
	if got := SpanID(0xab).String(); got != "00000000000000ab" {
		t.Errorf("SpanID(0xab) = %q", got)
	}
	id := NewSpanID()
	if id == 0 {
		t.Fatal("NewSpanID minted zero")
	}
	if got := SpanID(0xfedcba9876543210).String(); got != "fedcba9876543210" {
		t.Errorf("SpanID(0xfedcba9876543210) = %q", got)
	}
}

func TestStartSpanDisarmed(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		c, sp := StartSpan(ctx, "noop")
		sp.SetAttr("k", "v")
		sp.Fail("boom")
		sp.End()
		if c != ctx {
			t.Fatal("disarmed StartSpan changed the context")
		}
	})
	if allocs != 0 {
		t.Errorf("disarmed StartSpan allocates %v times per run, want 0", allocs)
	}
	var nilSpan *Span
	if nilSpan.Trace() != "" || nilSpan.ID() != 0 || nilSpan.Parent() != 0 {
		t.Error("nil span accessors not zero")
	}
}

func TestSpanTreeRecorded(t *testing.T) {
	tr := NewTracer(TracerOptions{Telemetry: NewRegistry()})
	ctx, root := startTrace(tr, "request:SUBMIT")
	root.SetAttr("peer", "/O=Grid/CN=alice")

	ctx2, child := StartSpan(ctx, "cache.lookup")
	child.SetAttr("outcome", "miss")
	_, grand := StartSpan(ctx2, "provider.collect")
	grand.End()
	child.End()
	root.End()

	rec, ok := tr.Store().Get(root.Trace())
	if !ok {
		t.Fatal("trace not retained")
	}
	if rec.Root != root.ID() {
		t.Errorf("root = %v, want %v", rec.Root, root.ID())
	}
	if len(rec.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(rec.Spans))
	}
	byID := map[SpanID]SpanRecord{}
	for _, s := range rec.Spans {
		byID[s.ID] = s
	}
	if byID[child.ID()].Parent != root.ID() {
		t.Errorf("child parent = %v, want root %v", byID[child.ID()].Parent, root.ID())
	}
	if byID[grand.ID()].Parent != child.ID() {
		t.Errorf("grandchild parent = %v, want child %v", byID[grand.ID()].Parent, child.ID())
	}
	if attrs := byID[root.ID()].Attrs; len(attrs) != 1 || attrs[0].Key != "peer" {
		t.Errorf("root attrs = %v", attrs)
	}
}

func TestJoinTraceUsesCallerIDs(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	callerTrace := NewTraceID()
	callerSpan := NewSpanID()
	ctx, root := tr.Begin(context.Background(), new(Scope), RefOf(callerTrace), callerSpan, "request:SUBMIT")
	if root.Trace() != callerTrace || root.Parent() != callerSpan {
		t.Fatalf("joined root = (%v, parent %v)", root.Trace(), root.Parent())
	}
	if TraceFrom(ctx) != callerTrace {
		t.Error("context does not carry the caller's trace")
	}
	root.End()
	if rec, ok := tr.Store().Get(callerTrace); !ok || rec.Spans[0].Parent != callerSpan {
		t.Errorf("stored trace = %+v, %v", rec, ok)
	}
}

func TestTailSamplingKeepsErrored(t *testing.T) {
	// Negative rate: only errored or slow traces survive.
	tr := NewTracer(TracerOptions{SampleRate: -1, Telemetry: NewRegistry()})

	_, healthy := startTrace(tr, "ok")
	healthy.End()
	if _, ok := tr.Store().Get(healthy.Trace()); ok {
		t.Error("healthy trace retained under sample=-1")
	}

	ctx, root := startTrace(tr, "bad")
	_, child := StartSpan(ctx, "journal.append")
	child.Fail("disk full")
	child.End()
	root.End()
	rec, ok := tr.Store().Get(root.Trace())
	if !ok {
		t.Fatal("errored trace dropped")
	}
	if !rec.Err {
		t.Error("trace error bit not set")
	}
}

func TestTailSamplingKeepsSlow(t *testing.T) {
	now := time.Unix(1000, 0)
	clk := func() time.Time { return now }
	tr := NewTracer(TracerOptions{SampleRate: -1, SlowThreshold: 50 * time.Millisecond, Clock: clk})

	_, fast := startTrace(tr, "fast")
	now = now.Add(10 * time.Millisecond)
	fast.End()
	if _, ok := tr.Store().Get(fast.Trace()); ok {
		t.Error("fast healthy trace retained")
	}

	_, slow := startTrace(tr, "slow")
	now = now.Add(80 * time.Millisecond)
	slow.End()
	if rec, ok := tr.Store().Get(slow.Trace()); !ok || rec.Duration < 50*time.Millisecond {
		t.Errorf("slow trace = %+v, %v", rec, ok)
	}
}

func TestLateSpansAppendToKeptTrace(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	ctx, root := startTrace(tr, "request:SUBMIT")
	_, spawn := StartSpan(ctx, "gram.spawn")
	spawn.End()
	root.End() // SUBMIT acked; the job keeps running

	// The async job's span finishes after the root finalized.
	jobCtx, cancel := Detach(spawn)
	defer cancel()
	_, sched := StartSpan(jobCtx, "scheduler.run")
	sched.End()

	rec, ok := tr.Store().Get(root.Trace())
	if !ok {
		t.Fatal("trace dropped")
	}
	names := map[string]SpanID{}
	for _, s := range rec.Spans {
		names[s.Name] = s.Parent
	}
	if parent, ok := names["scheduler.run"]; !ok || parent != spawn.ID() {
		t.Errorf("late span parent = %v (present %t), want %v", parent, ok, spawn.ID())
	}
}

func TestLateSpanOnDroppedTraceCounted(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerOptions{SampleRate: -1, Telemetry: reg})
	ctx, root := startTrace(tr, "healthy")
	_, spawn := StartSpan(ctx, "gram.spawn")
	spawn.End()
	root.End() // dropped: healthy under sample=-1

	jobCtx, cancel := Detach(spawn)
	defer cancel()
	_, late := StartSpan(jobCtx, "scheduler.run")
	late.End()
	if got := counterValue(t, reg, "infogram_trace_spans_late_dropped_total"); got != 1 {
		t.Errorf("late-dropped counter = %d, want 1", got)
	}
}

func TestSpanOverflowBound(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerOptions{MaxSpans: 4, Telemetry: reg})
	ctx, root := startTrace(tr, "burst")
	for i := 0; i < 10; i++ {
		_, sp := StartSpan(ctx, fmt.Sprintf("op%d", i))
		sp.End()
	}
	root.End()
	rec, ok := tr.Store().Get(root.Trace())
	if !ok {
		t.Fatal("trace dropped")
	}
	if len(rec.Spans) != 4 {
		t.Errorf("stored spans = %d, want the MaxSpans bound of 4", len(rec.Spans))
	}
	if got := counterValue(t, reg, "infogram_trace_spans_overflow_total"); got != 7 {
		// 10 children + 1 root = 11 finishes, 4 stored.
		t.Errorf("overflow counter = %d, want 7", got)
	}
}

func TestStoreEvictionFIFO(t *testing.T) {
	store := NewTraceStore(storeStripes) // one trace per stripe
	// Random IDs don't guarantee every stripe is hit (a stripe stays empty
	// ~11% of the time over 32 draws), so draw until each stripe has seen
	// exactly four inserts.
	perStripe := make(map[*storeStripe]int)
	var traces []TraceID
	for len(traces) < 4*storeStripes {
		id := NewTraceID()
		if st := store.stripe(RefOf(id)); perStripe[st] < 4 {
			perStripe[st]++
			traces = append(traces, id)
			store.put(RefOf(id), 0, false, time.Unix(int64(len(traces)), 0), 0, nil)
		}
	}
	if n := store.Len(); n != storeStripes {
		t.Errorf("Len = %d, want %d", n, storeStripes)
	}
	if ev := store.Evicted(); ev != int64(3*storeStripes) {
		t.Errorf("Evicted = %d, want %d", ev, 3*storeStripes)
	}
	// The newest trace is always still present (its stripe evicted its
	// own oldest, never the newest).
	if _, ok := store.Get(traces[len(traces)-1]); !ok {
		t.Error("newest trace evicted")
	}
}

func TestStoreMergesSameTrace(t *testing.T) {
	store := NewTraceStore(0)
	trace := NewTraceID()
	t0 := time.Unix(100, 0)
	store.put(RefOf(trace), 0, false, t0, time.Second, []SpanRecord{{ID: 1, Name: "a"}})
	store.put(RefOf(trace), 0, true, t0.Add(2*time.Second), time.Second, []SpanRecord{{ID: 2, Name: "b"}})
	rec, ok := store.Get(trace)
	if !ok {
		t.Fatal("trace missing")
	}
	if len(rec.Spans) != 2 || !rec.Err {
		t.Errorf("merged = %+v", rec)
	}
	if rec.Duration != 3*time.Second {
		t.Errorf("window = %v, want 3s (extended over both requests)", rec.Duration)
	}
}

func TestTracerConcurrentTraces(t *testing.T) {
	tr := NewTracer(TracerOptions{Capacity: 1024})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, root := startTrace(tr, "request")
				_, child := StartSpan(ctx, "work")
				child.End()
				root.End()
			}
		}()
	}
	wg.Wait()
	if n := tr.Store().Len(); n != 400 {
		t.Errorf("stored traces = %d, want 400", n)
	}
}

func TestHistogramExemplar(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "latency")
	trace := NewTraceID()
	h.ObserveRef(3*time.Millisecond, RefOf(trace))
	h.Observe(4 * time.Millisecond) // no trace: must not clobber exemplar shape
	found := false
	for _, p := range reg.Snapshot() {
		if p.Name != "lat" {
			continue
		}
		for _, ex := range p.Hist.Exemplars {
			if ex != nil && ex.Trace == trace {
				found = true
				if ex.Value != 3*time.Millisecond {
					t.Errorf("exemplar value = %v", ex.Value)
				}
			}
		}
	}
	if !found {
		t.Error("exemplar not captured in snapshot")
	}
}

func TestDoubleEndIsNoOp(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	_, root := startTrace(tr, "once")
	root.End()
	root.End()
	rec, ok := tr.Store().Get(root.Trace())
	if !ok || len(rec.Spans) != 1 {
		t.Errorf("double End stored %d spans (ok=%t), want 1", len(rec.Spans), ok)
	}
}

// counterValue digs a counter out of a registry snapshot.
func counterValue(t *testing.T, reg *Registry, name string) int64 {
	t.Helper()
	for _, p := range reg.Snapshot() {
		if p.Name == name && p.Kind == KindCounter {
			return p.Value
		}
	}
	t.Fatalf("counter %q not found", name)
	return 0
}

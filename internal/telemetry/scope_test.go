package telemetry

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// request runs one request's span tree through a reused Scope: a root, a
// child with an attribute, and a grandchild.
func request(t *Tracer, sc *Scope, trace TraceRef) {
	ctx, root := t.Begin(context.Background(), sc, trace, 0, "request:SUBMIT")
	root.SetAttr("peer", "/O=Grid/CN=alice")
	cctx, child := StartSpan(ctx, "cache.lookup")
	child.SetAttr("outcome", "hit")
	_, grand := StartSpan(cctx, "provider.collect")
	grand.End()
	child.End()
	root.End()
}

// Tracing a request through a reused Scope allocates nothing once the
// store's slots are warm, for a trace the sampler keeps and for one it
// drops: the telemetry share of a request's budget is zero.
func TestScopeRequestAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	for _, sample := range []float64{1, -1} {
		t.Run(fmt.Sprintf("sample=%v", sample), func(t *testing.T) {
			tr := NewTracer(TracerOptions{SampleRate: sample, Capacity: 64, Telemetry: NewRegistry()})
			var sc Scope
			for i := 0; i < 256; i++ { // fill every store slot once
				request(tr, &sc, NewTraceRef())
			}
			h := &Histogram{}
			if allocs := testing.AllocsPerRun(200, func() {
				trace := NewTraceRef()
				request(tr, &sc, trace)
				h.ObserveRef(time.Millisecond, trace)
			}); allocs != 0 {
				t.Errorf("a traced request allocates %v times, want 0", allocs)
			}
		})
	}
}

// Slots are reused under eviction while requests commit, late spans
// append and readers snapshot concurrently: every trace read back holds
// only its own spans, and the store never holds more than its bound.
func TestTraceSlotReuseUnderEviction(t *testing.T) {
	tr := NewTracer(TracerOptions{Capacity: storeStripes * 2, MaxSpans: 8})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc Scope
			for i := 0; i < 300; i++ {
				ctx, root := tr.Begin(context.Background(), &sc, TraceRef{}, 0, "request")
				name := "op." + string(root.Trace())
				_, sp := StartSpan(ctx, name)
				sp.SetAttr("trace", string(root.Trace()))
				sp.End()
				job, cancel := Detach(ctx)
				root.End()
				_, late := StartSpan(job, name)
				late.End()
				cancel()
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, rec := range tr.Store().Snapshot() {
				for _, s := range rec.Spans {
					if strings.HasPrefix(s.Name, "op.") && s.Name != "op."+string(rec.Trace) {
						t.Errorf("trace %s holds span %s of another trace", rec.Trace, s.Name)
					}
					for _, a := range s.Attrs {
						if a.Value != string(rec.Trace) {
							t.Errorf("trace %s holds attr %s=%s of another trace", rec.Trace, a.Key, a.Value)
						}
					}
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if n := tr.Store().Len(); n != storeStripes*2 {
		t.Errorf("store holds %d traces, want its bound %d", n, storeStripes*2)
	}
	if ev := tr.Store().Evicted(); ev != 1200-storeStripes*2 {
		t.Errorf("evicted %d, want %d", ev, 1200-storeStripes*2)
	}
}

// A job's late span that ends after its trace's slot went to another
// trace is counted as dropped and lands in no other trace.
func TestLateSpanAfterSlotReuse(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerOptions{Capacity: storeStripes, Telemetry: reg}) // one slot per stripe
	var sc Scope
	ctx, root := tr.Begin(context.Background(), &sc, TraceRef{}, 0, "request:SUBMIT")
	_, spawn := StartSpan(ctx, "gram.spawn")
	jobCtx, cancel := Detach(spawn)
	defer cancel()
	spawn.End()
	root.End()
	trace := root.Trace()
	_, run := StartSpan(jobCtx, "scheduler.run") // in flight while the slot is reused

	// Evict the trace: the next trace in its stripe takes its slot.
	for i := 0; ; i++ {
		if _, ok := tr.Store().Get(trace); !ok {
			break
		}
		if i == 10000 {
			t.Fatal("trace never evicted")
		}
		_, r := tr.Begin(context.Background(), &sc, TraceRef{}, 0, "other")
		r.End()
	}
	run.End()
	if got := counterValue(t, reg, "infogram_trace_spans_late_dropped_total"); got != 1 {
		t.Errorf("late-dropped = %d, want 1", got)
	}
	for _, rec := range tr.Store().Snapshot() {
		for _, s := range rec.Spans {
			if s.Name == "scheduler.run" {
				t.Errorf("the evicted trace's late span landed in trace %s", rec.Trace)
			}
		}
	}
}

// A detached job context outlives its request: reusing the request's
// Scope for later requests, and cancelling their contexts, neither
// cancels the job's context nor moves its spans; the job's spans parent
// under the span it was detached from, in its own trace.
func TestDetachedJobContext(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	var sc Scope
	reqCtx, reqCancel := context.WithCancel(context.Background())
	ctx, root := tr.Begin(reqCtx, &sc, TraceRef{}, 0, "request:SUBMIT")
	_, spawn := StartSpan(ctx, "gram.spawn")
	jobCtx, cancel := Detach(spawn)
	spawn.End()
	// A job span that ends while the request is still in flight joins
	// the request's buffered tree.
	_, early := StartSpan(jobCtx, "journal.append")
	early.End()
	root.End()
	reqCancel()
	trace, spawnID := root.Trace(), spawn.ID()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			c, cn := context.WithCancel(context.Background())
			rctx, r := tr.Begin(c, &sc, TraceRef{}, 0, "request:STATUS")
			_, s := StartSpan(rctx, "status")
			s.End()
			cn()
			r.End()
		}
	}()
	_, late := StartSpan(jobCtx, "scheduler.run")
	if jobCtx.Err() != nil {
		t.Fatal("the request's end cancelled the job context")
	}
	<-done
	// The job's span ends while a later request is in flight on the
	// reused Scope: it must go to its own stored trace, not that buffer.
	_, inflight := tr.Begin(context.Background(), &sc, TraceRef{}, 0, "request:STATUS")
	late.End()
	inflight.End()
	if jobCtx.Err() != nil || RefFrom(jobCtx) != RefOf(trace) {
		t.Fatalf("job context after scope reuse: err %v, trace %v", jobCtx.Err(), RefFrom(jobCtx))
	}
	if other, ok := tr.Store().Get(inflight.Trace()); !ok || len(other.Spans) != 1 {
		t.Errorf("the in-flight request's trace = %+v (%t); want its root alone", other, ok)
	}
	rec, ok := tr.Store().Get(trace)
	if !ok {
		t.Fatal("trace not stored")
	}
	parents := map[string]SpanID{}
	for _, s := range rec.Spans {
		parents[s.Name] = s.Parent
	}
	for _, name := range []string{"journal.append", "scheduler.run"} {
		if p, ok := parents[name]; !ok || p != spawnID {
			t.Errorf("%s parent = %v (present %t), want gram.spawn %v; spans %v", name, p, ok, spawnID, parents)
		}
	}
	cancel()
	select {
	case <-jobCtx.Done():
	case <-time.After(time.Second):
		t.Fatal("cancel did not cancel the job context")
	}
	if _, ok := jobCtx.Deadline(); ok {
		t.Error("the job context took the request's deadline")
	}
}

// A stored span keeps nothing of the live span it was recorded from: a
// job's late span without attributes must not pin the job's detached
// context (nor a request's Scope) for as long as its trace is stored.
func TestStoredSpanPinsNothing(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	var sc Scope
	ctx, root := tr.Begin(context.Background(), &sc, TraceRef{}, 0, "request:SUBMIT")
	jobCtx, cancel := Detach(ctx)
	root.End()
	_, late := StartSpan(jobCtx, "scheduler.run")
	late.End()
	cancel()
	if rec, ok := tr.Store().Get(root.Trace()); !ok || len(rec.Spans) != 2 {
		t.Fatalf("stored trace = %+v, %t; want the root and the late span", rec, ok)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(jobCtx.(*detached), func(*detached) { close(collected) })
	jobCtx, late = nil, nil
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the stored trace keeps the job's context alive")
}

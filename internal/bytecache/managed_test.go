package bytecache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infogram/internal/clock"
	"infogram/internal/telemetry"
)

// The refresh-ahead policy is tested here once, for every owner: a fake
// clock drives entry ages, scans are triggered by hand (the cache TTL is
// long enough that the background ticker sits at its 5 s cap and does not
// fire during a test), and a stub owner stands in for the miss path.

const stubTTL = 100 * time.Second

// stubOwner is a cache owner reduced to what Managed asks of one: a
// generation, a digest, a key body, and a refill.
type stubOwner struct {
	m     *Managed
	clk   *clock.Fake
	gen   atomic.Uint64
	calls atomic.Int64
	// outcome selects what refill does: store a fresh blob (0), store
	// nothing (1), or fail (2).
	outcome atomic.Int32
	// gate, when non-nil, holds every refill until it is closed.
	gate chan struct{}
}

func newStubOwner(t *testing.T, refreshAhead float64) *stubOwner {
	t.Helper()
	o := &stubOwner{clk: clock.NewFake(time.Unix(9000, 0))}
	o.gen.Store(1)
	o.m = NewManaged(ManagedOptions{
		Options:      Options{Shards: 4, MaxBytes: 1 << 20, DefaultTTL: stubTTL, Clock: o.clk},
		Generation:   o.gen.Load,
		Digest:       func() uint64 { return 77 },
		RefreshAhead: refreshAhead,
		Refill:       o.refill,
		Telemetry:    telemetry.NewRegistry(),
		Family:       "stub_refresh_ahead",
	})
	t.Cleanup(o.m.Close)
	return o
}

func (o *stubOwner) key(name string) []byte {
	return append(o.m.AppendGen(nil), name...)
}

func (o *stubOwner) refill(ctx context.Context, req any) (bool, error) {
	o.calls.Add(1)
	if o.gate != nil {
		select {
		case <-o.gate:
		case <-ctx.Done(): // Close must not wait on a held refill
		}
	}
	switch o.outcome.Load() {
	case 1:
		return false, nil
	case 2:
		return false, errors.New("providers down")
	}
	o.m.Store(o.key(req.(string)), []byte("fresh"), 0, nil)
	return true, nil
}

// fill stores name's first rendering and reads it hits times.
func (o *stubOwner) fill(name string, hits int) {
	o.m.Store(o.key(name), []byte("stale"), 0, func() any { return name })
	for i := 0; i < hits; i++ {
		o.m.Get(o.key(name))
	}
}

// eventually polls cond: refills run on real worker goroutines even though
// the cache clock is fake.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// idle reports that nothing is queued or being refilled.
func (o *stubOwner) idle() bool {
	if len(o.m.queue) != 0 {
		return false
	}
	o.m.mu.Lock()
	defer o.m.mu.Unlock()
	for _, t := range o.m.tracked {
		if t.inflight.Load() {
			return false
		}
	}
	return true
}

func TestManagedNegTTLRule(t *testing.T) {
	for _, tc := range []struct{ ttl, want time.Duration }{
		{40 * time.Second, 10 * time.Second},             // ttl/4 above the floor
		{2 * time.Second, time.Second},                   // ttl/4 = 500ms: floored to 1s
		{500 * time.Millisecond, 500 * time.Millisecond}, // floor capped at the ttl
	} {
		m := NewManaged(ManagedOptions{Options: Options{DefaultTTL: tc.ttl}})
		if got := m.NegTTL(); got != tc.want {
			t.Errorf("ttl %v: NegTTL = %v; want %v", tc.ttl, got, tc.want)
		}
	}
}

func TestManagedRefreshesHotAgedEntryOncePerWindow(t *testing.T) {
	o := newStubOwner(t, 0.5)
	o.gate = make(chan struct{})
	o.fill("hot", 2)

	// Young: 40 s of a 100 s lifetime, below the 50 % threshold.
	o.clk.Advance(40 * time.Second)
	o.m.scan()
	if !o.idle() || o.calls.Load() != 0 {
		t.Fatal("entry queued before the elapsed-fraction threshold")
	}

	// Aged: queued once; a second scan while the refill is still running
	// must not queue it again.
	o.clk.Advance(20 * time.Second)
	now := o.clk.Now().UnixNano()
	o.m.scan()
	eventually(t, "the refill to start", func() bool { return o.calls.Load() == 1 })
	o.m.scan()
	close(o.gate)
	eventually(t, "the refill to finish", o.idle)
	if got := o.calls.Load(); got != 1 {
		t.Fatalf("refills in one window = %d; want 1", got)
	}
	if got := o.m.refreshed.Value(); got != 1 {
		t.Fatalf("refreshed counter = %d; want 1", got)
	}
	info, ok := o.m.Info(o.key("hot"))
	if !ok || info.Stored != now {
		t.Fatalf("entry after refill = %+v, %v; want Stored advanced to %d", info, ok, now)
	}
	// The swap restarted the entry's life: it is young again.
	o.m.scan()
	if !o.idle() || o.calls.Load() != 1 {
		t.Fatal("freshly refilled entry was queued again")
	}
	// And it outlives its original deadline.
	o.clk.Advance(60 * time.Second)
	if v, ok := o.m.Get(o.key("hot")); !ok || string(v) != "fresh" {
		t.Fatalf("Get past the original deadline = %q, %v; want the refreshed blob", v, ok)
	}
}

func TestManagedSkipsOneHitEntries(t *testing.T) {
	o := newStubOwner(t, 0.5)
	o.fill("once", 1)
	o.clk.Advance(60 * time.Second)
	o.m.scan()
	if !o.idle() || o.calls.Load() != 0 {
		t.Fatal("one-hit entry was queued")
	}
	if o.m.Tracked() != 1 {
		t.Fatal("a cold entry must stay tracked: it may turn hot")
	}
}

func TestManagedUntracksEvictedAndOrphaned(t *testing.T) {
	o := newStubOwner(t, 0.5)
	o.fill("resident", 2)
	o.fill("evicted", 2)
	o.clk.Advance(60 * time.Second)

	// An entry that left the cache is untracked, not refilled; the next
	// request-path miss re-tracks it.
	o.m.Delete(o.key("evicted"))
	o.m.scan()
	eventually(t, "the resident entry's refill", o.idle)
	if got := o.calls.Load(); got != 1 {
		t.Fatalf("refills = %d; want 1 (the resident entry only)", got)
	}
	if got := o.m.Tracked(); got != 1 {
		t.Fatalf("tracked after eviction = %d; want 1", got)
	}

	// A generation bump makes the tracked key unreachable; refilling it
	// would resurrect data under a dead key.
	o.gen.Add(1)
	o.m.scan()
	if got := o.m.Tracked(); got != 0 {
		t.Fatalf("tracked after generation bump = %d; want 0", got)
	}
	if got := o.calls.Load(); got != 1 {
		t.Fatalf("orphaned entry was refilled (calls = %d)", got)
	}
	if got := o.m.trackedG.Value(); got != 1 {
		t.Fatalf("tracked gauge = %d; want 1, the count the scan started from", got)
	}
}

func TestManagedFullQueueSkipsAndRetries(t *testing.T) {
	o := newStubOwner(t, 0.5)
	o.gate = make(chan struct{})
	const n = refreshQueue + refreshWorkers + 4
	for i := 0; i < n; i++ {
		o.fill(fmt.Sprintf("k%02d", i), 2)
	}
	o.clk.Advance(60 * time.Second)
	o.m.scan()
	// The workers may or may not have drained their two before the queue
	// filled, so the skip count has a two-wide range.
	skipped := o.m.skipped.Value()
	if skipped < 4 || skipped > 4+refreshWorkers {
		t.Fatalf("skipped = %d; want 4..%d", skipped, 4+refreshWorkers)
	}
	close(o.gate)
	eventually(t, "the queue to drain", o.idle)
	if got := o.calls.Load(); got != n-skipped {
		t.Fatalf("refills after first scan = %d; want %d", got, n-skipped)
	}
	// The skipped entries are still hot and aged: the next scan takes them.
	o.m.scan()
	eventually(t, "the retried refills", func() bool { return o.calls.Load() == n })
	eventually(t, "the retried refills to finish", o.idle)
	if got := o.m.skipped.Value(); got != skipped {
		t.Fatalf("skipped grew to %d on a scan that fit the queue", got)
	}
}

func TestManagedFailedRefillLeavesOldBlob(t *testing.T) {
	for outcome, name := range map[int32]string{1: "nothing stored", 2: "error"} {
		t.Run(name, func(t *testing.T) {
			o := newStubOwner(t, 0.5)
			o.outcome.Store(outcome)
			o.fill("hot", 2)
			o.clk.Advance(60 * time.Second)
			o.m.scan()
			eventually(t, "the refill", func() bool { return o.m.failed.Value() == 1 })
			if o.m.refreshed.Value() != 0 {
				t.Fatal("failed refill counted as a refresh")
			}
			if v, ok := o.m.Get(o.key("hot")); !ok || string(v) != "stale" {
				t.Fatalf("Get after failed refill = %q, %v; want the old blob", v, ok)
			}
		})
	}
}

func TestManagedTrackingIsLazyAndBounded(t *testing.T) {
	// Refresh-ahead off: nothing will ever scan, so nothing is tracked and
	// the request is never cloned.
	off := newStubOwner(t, 0)
	off.m.Store(off.key("k"), []byte("v"), 0, func() any {
		t.Error("request cloned with refresh-ahead off")
		return nil
	})
	if off.m.Tracked() != 0 {
		t.Fatal("tracked with refresh-ahead off")
	}

	o := newStubOwner(t, 0.5)
	clones := 0
	for round := 0; round < 2; round++ {
		for i := 0; i < maxTracked+500; i++ {
			o.m.Store(o.key(fmt.Sprintf("k%d", i)), []byte("v"), 0, func() any { clones++; return i })
		}
	}
	if got := o.m.Tracked(); got != maxTracked {
		t.Fatalf("tracked = %d; want the bound %d", got, maxTracked)
	}
	if clones != maxTracked {
		t.Fatalf("request cloned %d times; want once per newly tracked key (%d)", clones, maxTracked)
	}
	// A nil request is never tracked.
	o.gen.Add(1)
	o.m.scan() // the bump orphans everything: table empty again
	o.m.Store(o.key("neg"), []byte("v"), 0, nil)
	if got := o.m.Tracked(); got != 0 {
		t.Fatalf("tracked after a nil-request store = %d; want 0", got)
	}
}

func TestManagedCloseStopsGoroutines(t *testing.T) {
	var nilCache *Managed
	nilCache.Close() // nil-safe

	before := runtime.NumGoroutine()
	o := newStubOwner(t, 0.5)
	if got := runtime.NumGoroutine(); got != before+1+refreshWorkers {
		t.Fatalf("goroutines with the pool armed = %d; want %d", got, before+1+refreshWorkers)
	}
	o.fill("hot", 2)
	o.m.Close()
	o.m.Close() // idempotent
	eventually(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() == before })

	off := newStubOwner(t, 0)
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("goroutines with refresh-ahead off = %d; want %d", got, before)
	}
	off.m.Close()
}

func TestManagedConcurrentStoreScanClose(t *testing.T) {
	o := newStubOwner(t, 0.5)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				name := fmt.Sprintf("w%d-%d", w, i%50)
				o.fill(name, 2)
				if i%100 == 0 {
					o.gen.Add(1)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			o.clk.Advance(10 * time.Second)
			o.m.scan()
		}
	}()
	wg.Wait()
	o.m.Close()
	o.m.Store(o.key("late"), []byte("v"), 0, func() any { return "late" }) // stores still work after Close
}

// TestManagedPersisterRestampsAndGates: the snapshot wiring every owner
// gets — keys move to the restoring owner's generation, orphans of older
// generations are dropped, and a different digest refuses the file.
func TestManagedPersisterRestampsAndGates(t *testing.T) {
	path := t.TempDir() + "/stub.snap"
	src := newStubOwner(t, 0)
	src.m.Set(src.key("old"), []byte("orphan"), 0)
	src.gen.Store(5)
	src.m.Set(src.key("k"), []byte("v"), 0)
	if err := src.m.Persister(path, "stub", 0, false).Snapshot(); err != nil {
		t.Fatal(err)
	}

	dst := newStubOwner(t, 0)
	dst.gen.Store(9)
	st, err := dst.m.Persister(path, "stub", 0, false).Restore()
	if err != nil || st.Restored != 1 || st.DroppedKey != 1 {
		t.Fatalf("restore = %+v, %v; want 1 restored, 1 orphan dropped", st, err)
	}
	if v, ok := dst.m.Get(dst.key("k")); !ok || string(v) != "v" {
		t.Fatalf("restored entry under the new generation = %q, %v", v, ok)
	}

	foreign := NewManaged(ManagedOptions{
		Options:    Options{DefaultTTL: stubTTL, Clock: dst.clk},
		Generation: func() uint64 { return 5 },
		Digest:     func() uint64 { return 78 },
	})
	if _, err := foreign.Persister(path, "stub", 0, false).Restore(); !errors.Is(err, ErrSnapshotRejected) {
		t.Fatalf("foreign-digest restore err = %v; want ErrSnapshotRejected", err)
	}
	var none *Managed
	if p := none.Persister(path, "stub", 0, false); p != nil {
		t.Fatal("nil cache produced a persister")
	}
}

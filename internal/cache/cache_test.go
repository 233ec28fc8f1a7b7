package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infogram/internal/clock"
	"infogram/internal/quality"
	"infogram/internal/telemetry"
)

// counter is an UpdateFunc that counts executions and returns a fresh
// value each time.
type counter struct {
	n   atomic.Int64
	err error
}

func (c *counter) fn(context.Context) (any, error) {
	n := c.n.Add(1)
	if c.err != nil {
		return nil, c.err
	}
	return int(n), nil
}

func TestQueryBeforeFetch(t *testing.T) {
	e := NewEntry(Options{TTL: time.Second}, (&counter{}).fn)
	if _, err := e.Query(); !errors.Is(err, ErrNeverFetched) {
		t.Errorf("got %v, want ErrNeverFetched", err)
	}
}

func TestQueryWithinTTL(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	c := &counter{}
	e := NewEntry(Options{TTL: time.Second, Clock: clk}, c.fn)
	if _, err := e.Update(context.Background()); err != nil {
		t.Fatal(err)
	}
	r, err := e.Query()
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if r.Value.(int) != 1 || !r.FromCache {
		t.Errorf("r = %+v", r)
	}
	clk.Advance(2 * time.Second)
	if _, err := e.Query(); !errors.Is(err, ErrStale) {
		t.Errorf("got %v, want ErrStale", err)
	}
}

func TestCachedModeHitsWithinTTL(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	c := &counter{}
	e := NewEntry(Options{TTL: time.Second, Clock: clk}, c.fn)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		r, err := e.Get(ctx, Cached, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value.(int) != 1 {
			t.Fatalf("iteration %d: value %v", i, r.Value)
		}
	}
	if got := c.n.Load(); got != 1 {
		t.Errorf("provider executed %d times, want 1", got)
	}
	st := e.Stats()
	if st.Execs != 1 || st.Hits != 9 {
		t.Errorf("stats = %+v", st)
	}
	// After expiry, the next cached read refreshes.
	clk.Advance(2 * time.Second)
	r, err := e.Get(ctx, Cached, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value.(int) != 2 || r.FromCache {
		t.Errorf("after expiry: %+v", r)
	}
}

func TestZeroTTLExecutesEveryTime(t *testing.T) {
	// Table 1: "0 specifies execution of the keyword every time it is
	// requested."
	c := &counter{}
	e := NewEntry(Options{TTL: 0}, c.fn)
	ctx := context.Background()
	for i := 1; i <= 5; i++ {
		r, err := e.Get(ctx, Cached, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value.(int) != i {
			t.Errorf("read %d got value %v", i, r.Value)
		}
	}
	if c.n.Load() != 5 {
		t.Errorf("execs = %d, want 5", c.n.Load())
	}
}

func TestImmediateModeBypassesTTL(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	c := &counter{}
	e := NewEntry(Options{TTL: time.Hour, Clock: clk}, c.fn)
	ctx := context.Background()
	for i := 1; i <= 3; i++ {
		r, err := e.Get(ctx, Immediate, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value.(int) != i {
			t.Errorf("immediate read %d = %v", i, r.Value)
		}
	}
	// Immediate updated the cache: a cached read sees the newest value.
	r, err := e.Get(ctx, Cached, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value.(int) != 3 || !r.FromCache {
		t.Errorf("cached after immediate = %+v", r)
	}
}

func TestLastMode(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	c := &counter{}
	e := NewEntry(Options{TTL: time.Millisecond, Clock: clk}, c.fn)
	ctx := context.Background()
	if _, err := e.Get(ctx, Last, 0); !errors.Is(err, ErrNeverFetched) {
		t.Errorf("Last before fetch: %v", err)
	}
	if _, err := e.Update(ctx); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Hour) // far past TTL
	r, err := e.Get(ctx, Last, 0)
	if err != nil {
		t.Fatalf("Last: %v", err)
	}
	if r.Value.(int) != 1 || !r.FromCache {
		t.Errorf("Last = %+v", r)
	}
	if c.n.Load() != 1 {
		t.Errorf("Last mode executed the provider (%d execs)", c.n.Load())
	}
}

func TestDelaySuppressesExecution(t *testing.T) {
	// §6.2: "a delay that controls how many milliseconds must pass
	// between consecutive calls of updateState before the actual
	// information is obtained".
	clk := clock.NewFake(time.Unix(1000, 0))
	c := &counter{}
	e := NewEntry(Options{TTL: time.Nanosecond, Delay: 100 * time.Millisecond, Clock: clk}, c.fn)
	ctx := context.Background()
	if _, err := e.Update(ctx); err != nil {
		t.Fatal(err)
	}
	// Within the delay even Immediate serves the cached value.
	clk.Advance(50 * time.Millisecond)
	r, err := e.Get(ctx, Immediate, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.FromCache || r.Value.(int) != 1 {
		t.Errorf("within delay: %+v", r)
	}
	// After the delay the update happens.
	clk.Advance(60 * time.Millisecond)
	r, err = e.Get(ctx, Immediate, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.FromCache || r.Value.(int) != 2 {
		t.Errorf("after delay: %+v", r)
	}
	if c.n.Load() != 2 {
		t.Errorf("execs = %d, want 2", c.n.Load())
	}
}

func TestSetDelay(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	c := &counter{}
	e := NewEntry(Options{TTL: time.Nanosecond, Clock: clk}, c.fn)
	ctx := context.Background()
	if _, err := e.Update(ctx); err != nil {
		t.Fatal(err)
	}
	e.SetDelay(time.Minute)
	clk.Advance(time.Second)
	r, err := e.Get(ctx, Immediate, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.FromCache {
		t.Errorf("SetDelay not applied: %+v", r)
	}
}

func TestSingleFlightCoalescing(t *testing.T) {
	// §6.2: "If multiple updateState methods are invoked, monitors are
	// used to perform only one such update at a time."
	started := make(chan struct{})
	release := make(chan struct{})
	var execs atomic.Int64
	e := NewEntry(Options{TTL: time.Hour}, func(ctx context.Context) (any, error) {
		if execs.Add(1) == 1 {
			close(started)
			<-release
		}
		return "v", nil
	})
	ctx := context.Background()

	firstDone := make(chan error, 1)
	go func() {
		_, err := e.Update(ctx)
		firstDone <- err
	}()
	<-started

	const waiters = 8
	var wg sync.WaitGroup
	results := make(chan Result, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := e.Update(ctx)
			if err == nil {
				results <- r
			}
		}()
	}
	// Give the waiters a moment to pile onto the in-flight update.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(results)
	got := 0
	for r := range results {
		got++
		if r.Value.(string) != "v" {
			t.Errorf("waiter value = %v", r.Value)
		}
	}
	if got != waiters {
		t.Errorf("%d waiters succeeded, want %d", got, waiters)
	}
	if n := execs.Load(); n != 1 {
		t.Errorf("execs = %d, want 1 (single flight)", n)
	}
	if e.Stats().Coalesced == 0 {
		t.Error("no coalesced waits recorded")
	}
}

func TestCoalescedWaitersSeeError(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	first := true
	e := NewEntry(Options{TTL: time.Hour}, func(ctx context.Context) (any, error) {
		if first {
			first = false
			close(started)
			<-release
		}
		return nil, errors.New("boom")
	})
	ctx := context.Background()
	go func() {
		_, _ = e.Update(ctx)
	}()
	<-started
	done := make(chan error, 1)
	go func() {
		_, err := e.Update(ctx)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-done; err == nil {
		t.Error("coalesced waiter should see the update error")
	}
}

func TestWaitCancellation(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	e := NewEntry(Options{TTL: time.Hour}, func(ctx context.Context) (any, error) {
		close(started)
		<-release
		return "v", nil
	})
	go func() { _, _ = e.Update(context.Background()) }()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Get(ctx, Cached, 0)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("got %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled waiter did not return")
	}
	close(release)
}

func TestUpdateError(t *testing.T) {
	c := &counter{err: errors.New("provider down")}
	e := NewEntry(Options{TTL: time.Second}, c.fn)
	if _, err := e.Update(context.Background()); err == nil {
		t.Error("expected error")
	}
	// The error does not poison the entry: a later success fills it.
	c.err = nil
	r, err := e.Update(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Value.(int) != 2 {
		t.Errorf("value = %v", r.Value)
	}
}

func TestQualityThresholdForcesRefresh(t *testing.T) {
	// §6.5 quality tag: "If the degradation function of any of its
	// returned attributes is below that threshold, this attribute is
	// regenerated by the associated command."
	clk := clock.NewFake(time.Unix(1000, 0))
	c := &counter{}
	e := NewEntry(Options{
		TTL:     time.Hour, // TTL alone would keep the value
		Degrade: quality.Linear{Horizon: 10 * time.Second},
		Clock:   clk,
	}, c.fn)
	ctx := context.Background()
	if _, err := e.Update(ctx); err != nil {
		t.Fatal(err)
	}
	// Age 5s: quality 50. Threshold 40 -> cached value acceptable.
	clk.Advance(5 * time.Second)
	r, err := e.Get(ctx, Cached, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !r.FromCache || r.Quality != 50 {
		t.Errorf("threshold 40: %+v", r)
	}
	// Threshold 60 -> refresh.
	r, err = e.Get(ctx, Cached, 60)
	if err != nil {
		t.Fatal(err)
	}
	if r.FromCache {
		t.Errorf("threshold 60 should refresh: %+v", r)
	}
	if c.n.Load() != 2 {
		t.Errorf("execs = %d, want 2", c.n.Load())
	}
}

func TestQualityReportedWithoutDegradeIs100(t *testing.T) {
	e := NewEntry(Options{TTL: time.Hour}, (&counter{}).fn)
	r, err := e.Update(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Quality != 100 {
		t.Errorf("Quality = %v", r.Quality)
	}
}

func TestSeriesRecordsUpdateDurations(t *testing.T) {
	series := &telemetry.Histogram{}
	e := NewEntry(Options{TTL: 0, Series: series}, (&counter{}).fn)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := e.Update(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if st := series.Snapshot(); st.Count != 3 {
		t.Errorf("series count = %d", st.Count)
	}
}

func TestDriftFeedsSelfCorrection(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	sc := quality.NewSelfCorrecting(quality.Linear{Horizon: 10 * time.Second})
	var v atomic.Int64
	e := NewEntry(Options{
		TTL:     time.Nanosecond,
		Degrade: sc,
		Drift: func(old, new any) float64 {
			o, n := float64(old.(int64)), float64(new.(int64))
			if o == 0 {
				return 0
			}
			d := (n - o) / o
			if d < 0 {
				d = -d
			}
			return d
		},
		Clock: clk,
	}, func(ctx context.Context) (any, error) {
		return v.Add(100), nil // doubles-ish each time: heavy drift
	})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := e.Update(ctx); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	if sc.Observations() == 0 {
		t.Error("drift observations were not fed to the degradation function")
	}
}

func TestInvalidMode(t *testing.T) {
	e := NewEntry(Options{}, (&counter{}).fn)
	if _, err := e.Get(context.Background(), Mode(99), 0); err == nil {
		t.Error("expected error for invalid mode")
	}
}

func TestParseModeAndString(t *testing.T) {
	for _, m := range []Mode{Cached, Immediate, Last} {
		back, err := ParseMode(m.String())
		if err != nil || back != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), back, err)
		}
	}
	if m, err := ParseMode(""); err != nil || m != Cached {
		t.Errorf("empty mode: %v %v", m, err)
	}
	if _, err := ParseMode("weird"); err == nil {
		t.Error("expected error")
	}
	if s := Mode(42).String(); s != "mode(42)" {
		t.Errorf("String = %q", s)
	}
}

func TestConcurrentMixedReads(t *testing.T) {
	var execs atomic.Int64
	e := NewEntry(Options{TTL: time.Millisecond}, func(ctx context.Context) (any, error) {
		return int(execs.Add(1)), nil
	})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				mode := []Mode{Cached, Immediate}[j%2]
				if _, err := e.Get(ctx, mode, 0); err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", i, err)
					return
				}
				if _, err := e.Query(); err != nil &&
					!errors.Is(err, ErrStale) && !errors.Is(err, ErrNeverFetched) {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

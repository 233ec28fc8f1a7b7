package provider

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"infogram/internal/cache"
	"infogram/internal/clock"
	"infogram/internal/telemetry"
)

// freshRegistry registers n static providers K0…K(n-1) with a one-hour
// TTL and reads each once, so every one of them is fresh.
func freshRegistry(t *testing.T, n int) *Registry {
	t.Helper()
	reg := NewRegistry(nil)
	for i := 0; i < n; i++ {
		reg.Register(&StaticProvider{KeywordName: fmt.Sprintf("K%d", i),
			Values: Attributes{{Name: "v", Value: fmt.Sprint(i)}}}, RegisterOptions{TTL: time.Hour})
	}
	if _, err := reg.Collect(context.Background(), nil, cache.Cached, 0); err != nil {
		t.Fatal(err)
	}
	return reg
}

// fanoutMetrics returns the fan-out gauge and histogram of tel.
func fanoutMetrics(tel *telemetry.Registry) (*telemetry.Gauge, *telemetry.Histogram) {
	return tel.Gauge("infogram_collect_parallel_inflight",
			"provider retrievals currently executing inside a parallel collect fan-out"),
		tel.Histogram("infogram_collect_fanout_duration_seconds",
			"wall-clock latency of one multi-keyword parallel collect fan-out")
}

// A collect whose keywords are all fresh reads them on the calling
// goroutine: no worker starts, the fan-out metrics do not move, and the
// collect costs a fixed handful of allocations — the resolved
// registrations, the outcome slots and the reports.
func TestCollectFreshStartsNoWorker(t *testing.T) {
	reg := freshRegistry(t, 8)
	tel := telemetry.NewRegistry()
	reg.SetTelemetry(tel)
	gauge, hist := fanoutMetrics(tel)
	kws := []string{"K3", "k1", "K7", "K0", "K5", "K2", "K6", "K4"}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		reports, err := reg.Collect(ctx, kws, cache.Cached, 0)
		if err != nil || len(reports) != len(kws) {
			t.Fatalf("Collect = %d reports, %v", len(reports), err)
		}
	})
	if allocs > 3 {
		t.Errorf("fresh Collect: %.1f allocs, want ≤ 3 (a fan-out starts goroutines)", allocs)
	}
	if n := hist.Snapshot().Count; n != 0 {
		t.Errorf("fan-out histogram count = %d after fresh collects; want 0", n)
	}
	if v := gauge.Value(); v != 0 {
		t.Errorf("in-flight gauge = %d; want 0", v)
	}
	reports, err := reg.Collect(ctx, kws, cache.Cached, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if want := "K" + kws[i][1:]; rep.Keyword != want || !rep.Result.FromCache {
			t.Fatalf("reports[%d] = %s (from cache %v); want %s from cache", i, rep.Keyword, rep.Result.FromCache, want)
		}
	}
}

// gatedProvider is a TTL-0 provider whose every execution announces
// itself on started and then blocks until release is closed.
func gatedProvider(kw string, started chan<- string, release <-chan struct{}) *FuncProvider {
	return NewFuncProvider(kw, func(ctx context.Context) (Attributes, error) {
		started <- kw
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return Attributes{{Name: "v", Value: kw}}, nil
	})
}

// Two slow executions among fresh keywords still overlap — each starts
// before either is released — and the reports come back in request order,
// the fresh ones read inline while the executions run.
func TestCollectFreshBesideGatedExecutions(t *testing.T) {
	reg := freshRegistry(t, 6)
	tel := telemetry.NewRegistry()
	reg.SetTelemetry(tel)
	gauge, hist := fanoutMetrics(tel)
	started := make(chan string, 2)
	release := make(chan struct{})
	reg.Register(gatedProvider("SlowA", started, release), RegisterOptions{})
	reg.Register(gatedProvider("SlowB", started, release), RegisterOptions{})

	kws := []string{"K0", "SlowA", "K1", "K2", "K3", "SlowB", "K4", "K5"}
	type result struct {
		reports []Report
		err     error
	}
	done := make(chan result, 1)
	go func() {
		reports, err := reg.Collect(context.Background(), kws, cache.Cached, 0)
		done <- result{reports, err}
	}()
	for range 2 {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			close(release)
			t.Fatal("the two slow executions did not overlap")
		}
	}
	if v := gauge.Value(); v != 2 {
		t.Errorf("in-flight gauge = %d while both executions run; want 2", v)
	}
	close(release)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	for i, rep := range res.reports {
		if rep.Keyword != kws[i] {
			t.Fatalf("reports[%d] = %s; want %s", i, rep.Keyword, kws[i])
		}
		slow := kws[i] == "SlowA" || kws[i] == "SlowB"
		if rep.Result.FromCache == slow {
			t.Errorf("reports[%d] (%s) from cache = %v", i, kws[i], rep.Result.FromCache)
		}
	}
	if n := hist.Snapshot().Count; n != 1 {
		t.Errorf("fan-out histogram count = %d; want 1", n)
	}
	if v := gauge.Value(); v != 0 {
		t.Errorf("in-flight gauge = %d after collect; want 0", v)
	}
}

// tripClock is a fake clock that, once armed, advances by step right
// after handing out its next reading: the freshness test that reads it
// sees a fresh value, and the read that follows sees the value expired.
type tripClock struct {
	*clock.Fake
	step  time.Duration
	armed atomic.Bool
}

func (c *tripClock) Now() time.Time {
	now := c.Fake.Now()
	if c.armed.CompareAndSwap(true, false) {
		c.Fake.Advance(c.step)
	}
	return now
}

func (c *tripClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// A keyword that expires between the freshness test and its read executes
// exactly once, on its own and beside a fan-out of executions alike.
func TestCollectKeywordExpiringAfterTestExecutesOnce(t *testing.T) {
	for _, slow := range []bool{false, true} {
		t.Run(fmt.Sprintf("beside_fanout=%v", slow), func(t *testing.T) {
			clk := &tripClock{Fake: clock.NewFake(time.Unix(1e9, 0)), step: 2 * time.Minute}
			var execs atomic.Int64
			reg := NewRegistry(nil)
			reg.Register(NewFuncProvider("Ephemeral", func(context.Context) (Attributes, error) {
				return Attributes{{Name: "n", Value: fmt.Sprint(execs.Add(1))}}, nil
			}), RegisterOptions{TTL: time.Minute, Clock: clk})
			kws := []string{"Ephemeral"}
			if slow {
				for _, kw := range []string{"SlowA", "SlowB"} {
					reg.Register(sleepProvider(kw, 5*time.Millisecond, nil, nil), RegisterOptions{})
				}
				kws = []string{"SlowA", "Ephemeral", "SlowB"}
			}
			ctx := context.Background()
			if _, err := reg.Collect(ctx, kws, cache.Cached, 0); err != nil {
				t.Fatal(err)
			}
			clk.armed.Store(true)
			reports, err := reg.Collect(ctx, kws, cache.Cached, 0)
			if err != nil {
				t.Fatal(err)
			}
			if n := execs.Load(); n != 2 {
				t.Fatalf("Ephemeral executed %d times over two collects; want 2", n)
			}
			for i, rep := range reports {
				if rep.Keyword != kws[i] {
					t.Fatalf("reports[%d] = %s; want %s", i, rep.Keyword, kws[i])
				}
				if rep.Keyword == "Ephemeral" {
					if v, _ := rep.Attrs.Get("n"); v != "2" || rep.Result.FromCache {
						t.Fatalf("Ephemeral = %s from cache %v; want the second execution's value", v, rep.Result.FromCache)
					}
				}
			}
		})
	}
}

// CollectDegraded keeps its per-provider timeout beside inline reads: a
// hung provider costs one timeout, a failing one is a marker, the fresh
// keywords arrive intact, and everything stays in request order.
func TestCollectDegradedTimeoutBesideFreshKeywords(t *testing.T) {
	boom := errors.New("sensor offline")
	reg := freshRegistry(t, 4)
	reg.Register(NewFuncProvider("Hang", func(ctx context.Context) (Attributes, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}), RegisterOptions{})
	reg.Register(NewFuncProvider("Bad", func(context.Context) (Attributes, error) {
		return nil, boom
	}), RegisterOptions{})
	start := time.Now()
	reports, degraded, err := reg.CollectDegraded(context.Background(),
		[]string{"K0", "Hang", "K1", "Bad", "K2", "K3"}, cache.Cached, 0, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("per-provider timeout did not bound the hang: %v", elapsed)
	}
	var got []string
	for _, rep := range reports {
		got = append(got, rep.Keyword)
	}
	if fmt.Sprint(got) != "[K0 K1 K2 K3]" {
		t.Fatalf("reports = %v; want [K0 K1 K2 K3]", got)
	}
	if len(degraded) != 2 ||
		degraded[0].Keyword != "Hang" || !errors.Is(degraded[0].Err, context.DeadlineExceeded) ||
		degraded[1].Keyword != "Bad" || !errors.Is(degraded[1].Err, boom) {
		t.Fatalf("degraded = %+v; want Hang (deadline) then Bad", degraded)
	}
}

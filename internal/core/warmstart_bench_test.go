package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"infogram/internal/clock"
	"infogram/internal/provider"
	"infogram/internal/xrsl"
)

// The warm-restart benchmark pair. Acceptance: restart-to-first-hit
// through the restored snapshot must be >= 10x faster than the cold path
// (a ~5ms provider).

const (
	// warmBenchKeys is the snapshot population for the restart pair.
	warmBenchKeys = 256
	// warmProviderDelay stands in for a real collection (a forked probe, an
	// LRM query): the cost a cold restart pays and a warm one does not.
	warmProviderDelay = 5 * time.Millisecond
)

// warmBenchRegistry builds the registry every "process generation" of the
// restart pair starts from — identical shape, so the snapshot digest
// matches across restarts exactly as it does for a real server rebuilt
// from the same config.
func warmBenchRegistry(delay time.Duration) *provider.Registry {
	reg := provider.NewRegistry(nil)
	reg.Register(provider.NewFuncProvider("Payload", func(ctx context.Context) (provider.Attributes, error) {
		time.Sleep(delay)
		return provider.Attributes{{Name: "v", Value: "payload-value"}}, nil
	}), provider.RegisterOptions{TTL: time.Hour})
	return reg
}

// warmBenchSnapshot fills a cache with the keyed population and writes its
// snapshot; returns the requests so restarted generations can replay them.
func warmBenchSnapshot(tb testing.TB, path string) []*xrsl.InfoRequest {
	tb.Helper()
	reg := warmBenchRegistry(warmProviderDelay)
	eng := &infoEngine{resource: "bench.resource", registry: reg}
	rc := testRespCache(reg, 64<<20, time.Hour, clock.System)
	reqs := make([]*xrsl.InfoRequest, warmBenchKeys)
	ctx := context.Background()
	for i := range reqs {
		reqs[i] = &xrsl.InfoRequest{
			Keywords: []string{"Payload"},
			Filter:   fmt.Sprintf("key%05d*", i),
		}
		body, empty, _, err := eng.Answer(ctx, reqs[i])
		if err != nil {
			tb.Fatal(err)
		}
		rc.store(reqs[i], rc.c.Generation(), body, empty)
	}
	if err := rc.c.Persister(path, "resp").Snapshot(); err != nil {
		tb.Fatal(err)
	}
	return reqs
}

// coldFirstAnswer is one cold restart's first answer: a fresh registry
// (nothing collected yet), a response-cache miss, a real provider
// execution, render, store.
func coldFirstAnswer(tb testing.TB, req *xrsl.InfoRequest) time.Duration {
	tb.Helper()
	reg := warmBenchRegistry(warmProviderDelay)
	eng := &infoEngine{resource: "bench.resource", registry: reg}
	rc := testRespCache(reg, 64<<20, time.Hour, clock.System)
	t0 := time.Now()
	if _, _, ok := rc.lookup(req, rc.c.Generation()); ok {
		tb.Fatal("cold cache answered from nowhere")
	}
	body, empty, _, err := eng.Answer(context.Background(), req)
	if err != nil {
		tb.Fatal(err)
	}
	rc.store(req, rc.c.Generation(), body, empty)
	return time.Since(t0)
}

// warmFirstHit is one warm restart's first answer: restore the snapshot
// into a fresh cache, then serve the first lookup from it.
func warmFirstHit(tb testing.TB, path string, req *xrsl.InfoRequest) time.Duration {
	tb.Helper()
	reg := warmBenchRegistry(warmProviderDelay)
	rc := testRespCache(reg, 64<<20, time.Hour, clock.System)
	t0 := time.Now()
	st, err := rc.c.Persister(path, "resp").Restore()
	if err != nil {
		tb.Fatal(err)
	}
	if st.Restored != warmBenchKeys {
		tb.Fatalf("restored %d entries; want %d", st.Restored, warmBenchKeys)
	}
	if _, _, ok := rc.lookup(req, rc.c.Generation()); !ok {
		tb.Fatal("restored cache missed")
	}
	return time.Since(t0)
}

// BenchmarkRestartColdFirstAnswer is the cost a restarted server pays for
// its first query without cache persistence: the full provider execution.
func BenchmarkRestartColdFirstAnswer(b *testing.B) {
	reqs := make([]*xrsl.InfoRequest, warmBenchKeys)
	for i := range reqs {
		reqs[i] = &xrsl.InfoRequest{
			Keywords: []string{"Payload"},
			Filter:   fmt.Sprintf("key%05d*", i),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		req := reqs[i%len(reqs)]
		b.StartTimer()
		_ = coldFirstAnswer(b, req)
	}
}

// BenchmarkRestartWarmFirstHit is the same first query through snapshot
// restore: boot-time restore of the full population plus the first hit.
func BenchmarkRestartWarmFirstHit(b *testing.B) {
	path := filepath.Join(b.TempDir(), "respcache.snap")
	reqs := warmBenchSnapshot(b, path)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = warmFirstHit(b, path, reqs[i%len(reqs)])
	}
}

// warmRestartAttempts is how many measurements TestWarmRestartReference
// takes before it fails: a loaded host can stretch one warm restart's
// snapshot read, so one attempt is noisy — a genuine regression is
// persistent across attempts, scheduler jitter is not.
const warmRestartAttempts = 3

// TestWarmRestartReference is the regression reference point for
// warm-restart persistence, step 2 of scripts/gate.sh. Gated on
// INFOGRAM_WARMBENCH=1 because it sleeps through provider delays and the
// numbers only mean something on a quiet machine. The threshold is a
// ratio, so no per-host baseline is needed:
//
//   - restart_speedup >= 10: a warm restart's first answer (snapshot
//     restore + first hit) is at least 10x faster than a cold one (which
//     pays the deliberate ~5ms provider delay).
//
// Each attempt logs one JSON object; the test passes when any attempt
// clears the threshold.
func TestWarmRestartReference(t *testing.T) {
	if os.Getenv("INFOGRAM_WARMBENCH") != "1" {
		t.Skip("set INFOGRAM_WARMBENCH=1 to run the warm-restart reference point")
	}
	for attempt := 1; attempt <= warmRestartAttempts; attempt++ {
		p := measureWarmRestart(t)
		out, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("warm-restart reference point, attempt %d: %s", attempt, out)
		if p.RestartSpeedup >= 10 {
			return
		}
	}
	t.Errorf("no attempt of %d cleared restart_speedup >= 10", warmRestartAttempts)
}

// warmRestartPoint is one measurement of the reference point.
type warmRestartPoint struct {
	RestartColdNs  int64   `json:"restart_cold_ns"`
	RestartWarmNs  int64   `json:"restart_warm_ns"`
	RestartSpeedup float64 `json:"restart_speedup"`
	Keys           int     `json:"keys"`
}

// measureWarmRestart takes one measurement of the restart pair: median of
// a handful of runs each — the cold side is dominated by the deliberate
// provider delay, the warm side by reading and inserting the snapshot
// population.
func measureWarmRestart(t *testing.T) warmRestartPoint {
	path := filepath.Join(t.TempDir(), "respcache.snap")
	reqs := warmBenchSnapshot(t, path)
	median := func(runs int, f func(i int) time.Duration) time.Duration {
		ds := make([]time.Duration, runs)
		for i := range ds {
			ds[i] = f(i)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[runs/2]
	}
	cold := median(9, func(i int) time.Duration { return coldFirstAnswer(t, reqs[i]) })
	warm := median(9, func(i int) time.Duration { return warmFirstHit(t, path, reqs[i]) })
	return warmRestartPoint{
		cold.Nanoseconds(), warm.Nanoseconds(),
		float64(cold.Nanoseconds()) / float64(warm.Nanoseconds()),
		warmBenchKeys,
	}
}

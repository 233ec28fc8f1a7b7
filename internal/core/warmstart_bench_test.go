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

// The warm-restart benchmark pair plus the refresh-ahead steady-state
// point. Acceptance: restart-to-first-hit through the restored
// snapshot must be >= 10x faster than the cold path (a ~5ms provider),
// and under Zipf steady state with refresh-ahead armed the hot-decile
// keys must miss < 1% with a p99 within 2x of the pure hit path.

const (
	// warmBenchKeys is the snapshot population for the restart pair.
	warmBenchKeys = 256
	// warmProviderDelay stands in for a real collection (a forked probe, an
	// LRM query): the cost a cold restart pays and a warm one does not.
	warmProviderDelay = 5 * time.Millisecond
	// refreshBenchKeys/refreshProviderDelay shape the steady-state point.
	refreshBenchKeys     = 64
	refreshProviderDelay = 2 * time.Millisecond
	refreshBenchTTL      = 500 * time.Millisecond
	refreshBenchZipf     = 1.2
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
		rc.store(reqs[i], body, empty)
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
	if _, _, ok := rc.lookup(req); ok {
		tb.Fatal("cold cache answered from nowhere")
	}
	body, empty, _, err := eng.Answer(context.Background(), req)
	if err != nil {
		tb.Fatal(err)
	}
	rc.store(req, body, empty)
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
	if _, _, ok := rc.lookup(req); !ok {
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

// refreshBench is the refresh-ahead steady-state rig: one keyword (and one
// deliberately slow provider) per key, so a response-cache miss pays a
// real collection, and the refresher's background refills are what keep
// the hot keys from ever paying it on the request path.
type refreshBench struct {
	eng  *infoEngine
	rc   *respCache
	reqs []*xrsl.InfoRequest
}

func newRefreshBench() *refreshBench {
	reg := provider.NewRegistry(nil)
	s := &refreshBench{reqs: make([]*xrsl.InfoRequest, refreshBenchKeys)}
	for i := range s.reqs {
		kw := fmt.Sprintf("Key%03d", i)
		reg.Register(provider.NewFuncProvider(kw, func(ctx context.Context) (provider.Attributes, error) {
			time.Sleep(refreshProviderDelay)
			return provider.Attributes{{Name: "v", Value: kw}}, nil
		}), provider.RegisterOptions{TTL: refreshBenchTTL})
		s.reqs[i] = &xrsl.InfoRequest{Keywords: []string{kw}}
	}
	s.eng = &infoEngine{resource: "bench.resource", registry: reg}
	s.rc = newRespCache(Config{
		Registry: reg, CacheMaxBytes: 64 << 20, CacheTTL: refreshBenchTTL,
		RefreshAhead: 0.75, RequestTimeout: time.Second,
	}, s.eng)
	return s
}

// one serves a single request: hit from the response cache or the full
// miss path (collect + render + store), as the server's request path does.
func (s *refreshBench) one(ctx context.Context, i int) (hit bool, d time.Duration) {
	t0 := time.Now()
	if _, _, ok := s.rc.lookup(s.reqs[i]); ok {
		return true, time.Since(t0)
	}
	body, empty, _, err := s.eng.Answer(ctx, s.reqs[i])
	if err != nil {
		return false, time.Since(t0)
	}
	s.rc.store(s.reqs[i], body, empty)
	return false, time.Since(t0)
}

// warm fills every key once and runs Zipf traffic long enough for the
// hit counters to mark the hot keys and the scanner to start refreshing
// them — the steady state the measurement then samples.
func (s *refreshBench) warm(ctx context.Context, access []int) {
	for i := range s.reqs {
		s.one(ctx, i)
	}
	deadline := time.Now().Add(time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		s.one(ctx, access[i%len(access)])
	}
}

// refreshMetrics reduces a measured run: hot-decile miss ratio (keys
// ranked by access count), overall p99, and the hit-only p99.
func refreshMetrics(access []int, hits []bool, samples []time.Duration) (hotMiss, p99ns, hitP99ns float64) {
	accesses := make([]int, refreshBenchKeys)
	misses := make([]int, refreshBenchKeys)
	var hitSamples []time.Duration
	for i, k := range access {
		accesses[k]++
		if !hits[i] {
			misses[k]++
		} else {
			hitSamples = append(hitSamples, samples[i])
		}
	}
	rank := make([]int, refreshBenchKeys)
	for i := range rank {
		rank[i] = i
	}
	sort.Slice(rank, func(a, b int) bool { return accesses[rank[a]] > accesses[rank[b]] })
	hotAccess, hotMisses := 0, 0
	for _, k := range rank[:refreshBenchKeys/10] {
		hotAccess += accesses[k]
		hotMisses += misses[k]
	}
	if hotAccess > 0 {
		hotMiss = float64(hotMisses) / float64(hotAccess)
	}
	p99 := func(ds []time.Duration) float64 {
		if len(ds) == 0 {
			return 0
		}
		sorted := append([]time.Duration(nil), ds...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return float64(sorted[len(sorted)*99/100].Nanoseconds())
	}
	return hotMiss, p99(samples), p99(hitSamples)
}

// BenchmarkRefreshAheadZipfSteadyState measures the request path with the
// refresher armed: Zipf-drawn keyed queries against short-TTL providers,
// hot keys kept warm by background refills.
func BenchmarkRefreshAheadZipfSteadyState(b *testing.B) {
	s := newRefreshBench()
	defer s.rc.c.Close()
	ctx := context.Background()
	access := benchZipfAccess(refreshBenchKeys, 1<<16, refreshBenchZipf)
	s.warm(ctx, access)

	run := make([]int, b.N)
	hits := make([]bool, b.N)
	samples := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run[i] = access[i%len(access)]
		hits[i], samples[i] = s.one(ctx, run[i])
	}
	b.StopTimer()
	if b.N < 1000 {
		return // metrics are noise below a sane sample count
	}
	hotMiss, p99, hitP99 := refreshMetrics(run, hits, samples)
	b.ReportMetric(hotMiss, "hot_miss_ratio")
	b.ReportMetric(p99, "p99_ns")
	b.ReportMetric(hitP99, "hit_p99_ns")
}

// warmRestartAttempts is how many measurements TestWarmRestartReference
// takes before it fails: the p99 of 200k samples is its ~2000 worst, and a
// loaded host can starve the refresh workers, so one attempt is noisy — a
// genuine regression is persistent across attempts, scheduler jitter is
// not.
const warmRestartAttempts = 3

// TestWarmRestartReference is the regression reference point for
// warm-restart persistence and refresh-ahead, step 2 of scripts/gate.sh.
// Gated on INFOGRAM_WARMBENCH=1 because it sleeps through provider delays
// for seconds and the numbers only mean something on a quiet machine. The
// thresholds are ratios, so no per-host baseline is needed:
//
//   - restart_speedup >= 10: a warm restart's first answer (snapshot
//     restore + first hit) is at least 10x faster than a cold one (which
//     pays the deliberate ~5ms provider delay).
//   - hot_miss_ratio < 0.01: under Zipf steady state with refresh-ahead
//     armed, the top-decile keys miss less than 1% of the time.
//   - p99_ns <= 2 * hit_p99_ns: the overall request p99 stays within 2x of
//     the pure hit path — refresh-ahead, not requests, pays provider cost.
//
// Each attempt logs one JSON object; the test passes when any attempt
// clears all three thresholds.
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
		if p.RestartSpeedup >= 10 && p.HotMissRatio < 0.01 && p.P99ns <= 2*p.HitP99ns {
			return
		}
	}
	t.Errorf("no attempt of %d cleared restart_speedup >= 10, hot_miss_ratio < 0.01 and p99_ns <= 2*hit_p99_ns",
		warmRestartAttempts)
}

// warmRestartPoint is one measurement of the reference point.
type warmRestartPoint struct {
	RestartColdNs  int64   `json:"restart_cold_ns"`
	RestartWarmNs  int64   `json:"restart_warm_ns"`
	RestartSpeedup float64 `json:"restart_speedup"`
	HotMissRatio   float64 `json:"hot_miss_ratio"`
	P99ns          float64 `json:"p99_ns"`
	HitP99ns       float64 `json:"hit_p99_ns"`
	Keys           int     `json:"keys"`
	Zipf           float64 `json:"zipf"`
}

// measureWarmRestart takes one measurement: the restart pair, then the
// refresh-ahead steady state.
func measureWarmRestart(t *testing.T) warmRestartPoint {
	// Restart pair: median of a handful of runs each — the cold side is
	// dominated by the deliberate provider delay, the warm side by reading
	// and inserting the snapshot population.
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

	// Refresh-ahead steady state: a fixed sample count after the warm
	// phase, large enough that the hot-decile ratio and the p99 are stable.
	s := newRefreshBench()
	defer s.rc.c.Close()
	ctx := context.Background()
	access := benchZipfAccess(refreshBenchKeys, 1<<16, refreshBenchZipf)
	s.warm(ctx, access)
	const measured = 200_000
	run := make([]int, measured)
	hits := make([]bool, measured)
	samples := make([]time.Duration, measured)
	for i := 0; i < measured; i++ {
		run[i] = access[i%len(access)]
		hits[i], samples[i] = s.one(ctx, run[i])
	}
	hotMiss, p99, hitP99 := refreshMetrics(run, hits, samples)
	return warmRestartPoint{
		cold.Nanoseconds(), warm.Nanoseconds(),
		float64(cold.Nanoseconds()) / float64(warm.Nanoseconds()),
		hotMiss, p99, hitP99, refreshBenchKeys, refreshBenchZipf,
	}
}

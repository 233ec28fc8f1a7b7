package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(i + 1) // 1..100
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5000, 0.99}, {1000, 0.99}, {500, 0.98}, {100, 0.9}, {20, 0.5}, {0, 0.5}} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// marksEvery returns n+1 boundaries one second apart, with cpuPerWindow of
// process CPU spent in each window.
func marksEvery(n int, cpuPerWindow time.Duration) []cpuMark {
	marks := make([]cpuMark, n+1)
	for i := range marks {
		marks[i] = cpuMark{at: time.Duration(i) * time.Second, cpu: time.Duration(i) * cpuPerWindow}
	}
	return marks
}

// One window holds a stall; neither the best quarter of the windows nor the
// median over them must move with it.
func TestWindowStatsKeepAStallInItsWindow(t *testing.T) {
	var samples []sample
	for w := 0; w < 5; w++ {
		n := 2000
		if w == 2 {
			n = 1000 // the stalled window also completes fewer operations
		}
		for i := 0; i < n; i++ {
			lat := int64(i%1000 + 1) // 1..1000: p50 is 500, p99 is 990
			if w == 2 {
				lat *= 100
			}
			samples = append(samples, sample{at: int64(w)*int64(time.Second) + int64(i), lat: lat})
		}
	}
	// The partial sixth window is left out.
	samples = append(samples, sample{at: 5*int64(time.Second) + 1, lat: 1 << 40})
	stats, q := windowStats(samples, marksEvery(5, 200*time.Millisecond))
	if len(stats) != 5 || q != 0.99 {
		t.Fatalf("%d windows at q=%v, want 5 at 0.99", len(stats), q)
	}
	for name, tc := range map[string]struct {
		higher bool
		pick   func(windowStat) float64
		want   float64
	}{
		"ops/s":  {true, func(w windowStat) float64 { return w.opsPerS }, 2000},
		"p50":    {false, func(w windowStat) float64 { return w.p50NS }, 500},
		"cpu/op": {false, func(w windowStat) float64 { return w.cpuPerOp }, 100}, // 200 ms over 2000 ops, in us
	} {
		if got := bestQuarterOf(stats, tc.higher, tc.pick); got != tc.want {
			t.Errorf("best quarter of %s over windows = %v, want %v", name, got, tc.want)
		}
	}
	if got := medianOf(stats, func(w windowStat) float64 { return w.tailNS }); got != 990 {
		t.Errorf("median tail over windows = %v, want 990", got)
	}
	// The best quarter of eight windows is the mean of the best two.
	eight := make([]windowStat, 8)
	for i := range eight {
		eight[i].opsPerS = float64(i + 1)
	}
	ops := func(w windowStat) float64 { return w.opsPerS }
	if hi, lo := bestQuarterOf(eight, true, ops), bestQuarterOf(eight, false, ops); hi != 7.5 || lo != 1.5 {
		t.Errorf("best quarter of 1..8 = %v (higher) and %v (lower), want 7.5 and 1.5", hi, lo)
	}
	// With 100 samples per window the quantile drops to the one with ten
	// samples beyond it.
	var few []sample
	for w := 0; w < 3; w++ {
		for i := 0; i < 100; i++ {
			few = append(few, sample{at: int64(w)*int64(time.Second) + int64(i), lat: int64(i + 1)})
		}
	}
	stats, q = windowStats(few, marksEvery(3, time.Millisecond))
	if got := medianOf(stats, func(w windowStat) float64 { return w.tailNS }); q != 0.9 || got != 90 {
		t.Errorf("tail of 100-sample windows = %v at q=%v, want 90 at 0.9", got, q)
	}
}

// A hand-built tree: root 0..100 with a container 0..60 holding two
// replayed layers of 10 and 20, and a replayed layer of 15 directly under
// the root, itself holding a replayed 5.
func TestSelfTimeAndLayerBudget(t *testing.T) {
	log := newSpanLog(0)
	root := log.root("op", 0, 100)
	box := log.child(root, "container", 0, 60)
	cur := log.replayInto(box)
	cur.add("a", 10)
	cur.add("b", 20)
	cur = log.replayInto(root)
	outer := cur.add("c", 15)
	log.replayInto(outer).add("d", 5)
	// A second root of another name must stay out of the budget.
	log.root("other", 0, 1000)

	self := selfTimesBySpan(log.spans)
	want := map[string]int64{"op": 100 - 60 - 15, "container": 60 - 30, "a": 10, "b": 20, "c": 10, "d": 5, "other": 1000}
	for _, s := range log.spans {
		if self[s.Span] != want[s.Name] {
			t.Errorf("self time of %s = %d, want %d", s.Name, self[s.Span], want[s.Name])
		}
	}
	roundtrip, layers, residual := layerBudget(log.spans, "op")
	if roundtrip != 100 || layers != 10+20+10+5 || residual != roundtrip-layers {
		t.Errorf("layerBudget = %v, %v, %v; want 100, 45, 55", roundtrip, layers, residual)
	}
}

// A child that overruns its parent only covers the part inside it.
func TestSelfTimeClampsOverrun(t *testing.T) {
	log := newSpanLog(0)
	root := log.root("op", 0, 10)
	log.replayInto(root).add("slow", 25)
	if self := selfTimesBySpan(log.spans)[root.Span]; self != 0 {
		t.Errorf("self time of an overrun root = %d, want 0", self)
	}
}

func stream(workload string, seed int64, caller, n int) []request {
	var table []request
	switch workload {
	case wGIISSearch:
		table = giisTable(seed)
	case wQueryCold, wJobCycle:
	default:
		table = hotTable(seed)
	}
	g := newGenerator(workload, seed, caller, 2, table)
	out := make([]request, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestEqualSeedsGiveEqualStreams(t *testing.T) {
	for _, ws := range workloadSpecs {
		a, b := stream(ws.Name, 7, 0, 500), stream(ws.Name, 7, 0, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two streams of seed 7 differ", ws.Name)
		}
		if c := stream(ws.Name, 8, 0, 500); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", ws.Name)
		}
		if d := stream(ws.Name, 7, 1, 500); reflect.DeepEqual(a, d) {
			t.Errorf("%s: callers 0 and 1 give the same stream", ws.Name)
		}
	}
}

func TestKeySpaces(t *testing.T) {
	seen := make(map[string]bool)
	for _, r := range hotTable(1) {
		seen[r.src] = true
	}
	if len(seen) != hotKeys {
		t.Errorf("hot table has %d distinct queries, want %d", len(seen), hotKeys)
	}
	seen = make(map[string]bool)
	for _, r := range giisTable(1) {
		seen[r.src] = true
	}
	if len(seen) != giisKeywords*giisShapes {
		t.Errorf("giis table has %d distinct filters, want %d", len(seen), giisKeywords*giisShapes)
	}
	// query_cold never repeats, and two callers never share a volatile
	// keyword.
	seen = make(map[string]bool)
	vol := [2]map[int]bool{{}, {}}
	for caller := 0; caller < 2; caller++ {
		for _, r := range stream(wQueryCold, 1, caller, 5000) {
			if seen[r.src] {
				t.Fatalf("query_cold repeated %s", r.src)
			}
			seen[r.src] = true
			for _, kw := range r.kws[coldStablePerOp:] {
				vol[caller][kw] = true
			}
		}
	}
	for kw := range vol[0] {
		if vol[1][kw] {
			t.Errorf("volatile keyword %d is asked by both callers", kw)
		}
	}
}

// layerCounts are the per-layer counts each workload must show.
var layerCounts = map[string]map[string]float64{
	wQueryHot:     {"core.respcache_hit_ratio": 1, "provider.execs_per_op": 0, "gsi.auths_per_op": 0, "bytecache.sets_per_op": 0},
	wQueryCold:    {"core.respcache_hit_ratio": 0, "provider.execs_per_op": 2, "gsi.auths_per_op": 0, "bytecache.sets_per_op": 1},
	wConnectQuery: {"core.respcache_hit_ratio": 1, "gsi.auths_per_op": 1},
	wJobCycle:     {"gsi.auths_per_op": 0, "gram.spawned_per_op": 1, "provider.execs_per_op": 0},
	wGIISSearch:   {"mds.legs_per_search": 4, "mds.member_errors": 0, "mds.searches_degraded": 0},
	wProxyMixed:   {"cluster.fallbacks": 0, "cluster.relay_errors": 0, "gsi.auths_per_op": 0},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the tables in spec.go; regenerate it with: go run . -spec > ../BENCHMARK.json")
	}
	names := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,64}", name)
		}
		if names[name] {
			t.Errorf("name %q is used twice", name)
		}
		names[name] = true
	}
	for _, w := range workloadSpecs {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
		if setups[w.Name] == nil {
			t.Errorf("%s has no set-up", w.Name)
		}
	}
	for _, m := range endToEndSpecs {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range layerSpecs {
		check(m.Name)
	}
	if len(layerSpecs) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(layerSpecs))
	}
}

// Every workload, in both modes, emits exactly the metrics BENCHMARK.json
// names, with no failed operation. No timing is asserted.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts every service; skipped with -short")
	}
	o := options{seed: 1, pass: 300 * time.Millisecond, setups: 1, outDir: t.TempDir()}
	for _, ws := range workloadSpecs {
		w, setupS, err := setUp(ws.Name, o)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: set up in %.2f s", ws.Name, setupS[0])
		for _, traced := range []bool{false, true} {
			var res *result
			want := make(map[string]string)
			if traced {
				res, err = tracedRun(w, o)
				for _, m := range layerSpecs {
					want[m.Name] = m.Unit
				}
			} else {
				res, err = untracedRun(w, o, setupS)
				for _, m := range endToEndSpecs {
					want[m.Name] = m.Unit
				}
			}
			if err != nil {
				w.close()
				t.Fatalf("%s traced=%v: %v", ws.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", ws.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q, want %q", ws.Name, traced, name, got.Unit, unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, want %d", ws.Name, traced, len(res.Metrics), len(want))
			}
			if traced {
				if _, err := os.Stat(filepath.Join(o.outDir, "trace-"+ws.Name+".jsonl")); err != nil {
					t.Errorf("%s: %v", ws.Name, err)
				}
				v := func(name string) float64 { return res.Metrics[name].Value }
				if got := v("core.layers_us") + v("core.residual_us"); math.Abs(got-v("core.roundtrip_us")) > 1e-6 {
					t.Errorf("%s: layers + residual = %v, round trip = %v", ws.Name, got, v("core.roundtrip_us"))
				}
				// The workload exercises the layers it claims to: counts,
				// which repeat exactly, never timings.
				for name, want := range layerCounts[ws.Name] {
					if got := v(name); math.Abs(got-want) > 0.01 {
						t.Errorf("%s: %s = %v, want %v", ws.Name, name, got, want)
					}
				}
			}
		}
		w.close()
	}
}

package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"infogram/internal/clock"
	"infogram/internal/provider"
	"infogram/internal/xrsl"
)

// The response-cache benchmark pair: the same keyed info query answered
// through the sharded byte cache versus through the per-keyword provider
// cache plus render (what every query cost before the response cache).
// BENCH acceptance: the hit path must be >= 10x faster at 1M keys under
// Zipf(1.1), allocation-free after the blob.

const benchRespKeys = 1 << 20

func benchRespEngine() (*infoEngine, *respCache) {
	reg := provider.NewRegistry(nil)
	reg.Register(provider.NewFuncProvider("Memory", func(ctx context.Context) (provider.Attributes, error) {
		return provider.Attributes{
			{Name: "free", Value: "1024"},
			{Name: "total", Value: "2048"},
			{Name: "cached", Value: "512"},
		}, nil
	}), provider.RegisterOptions{TTL: time.Hour})
	eng := &infoEngine{resource: "bench.resource", registry: reg}
	rc := testRespCache(reg, 1<<30, time.Hour, clock.System)
	return eng, rc
}

// benchRespRequests builds the keyed population: one distinct filter
// string per key, the same query shape the loadgen keyed mode offers.
func benchRespRequests(n int) []*xrsl.InfoRequest {
	reqs := make([]*xrsl.InfoRequest, n)
	for i := range reqs {
		reqs[i] = &xrsl.InfoRequest{
			Keywords: []string{"Memory"},
			Filter:   fmt.Sprintf("key%08d*", i),
		}
	}
	return reqs
}

// benchZipfAccess pre-draws the access sequence so the benchmark loop
// measures the cache, not the random-number generator.
func benchZipfAccess(nKeys, nDraws int, s float64) []int {
	rng := rand.New(rand.NewSource(42))
	z := rand.NewZipf(rng, s, 1, uint64(nKeys-1))
	out := make([]int, nDraws)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// BenchmarkRespCacheHit1MZipf measures the full hit path — cacheability
// check, key build from the request, shard lookup, blob alias — against a
// 1M-key resident population accessed with Zipf(1.1) skew.
func BenchmarkRespCacheHit1MZipf(b *testing.B) {
	eng, rc := benchRespEngine()
	ctx := context.Background()
	reqs := benchRespRequests(benchRespKeys)
	body, _, _, err := eng.Answer(ctx, &xrsl.InfoRequest{Keywords: []string{"Memory"}})
	if err != nil {
		b.Fatal(err)
	}
	for _, req := range reqs {
		rc.store(req, body, false)
	}
	access := benchZipfAccess(benchRespKeys, 1<<16, 1.1)

	b.ResetTimer()
	b.ReportAllocs()
	hits := 0
	for i := 0; i < b.N; i++ {
		if _, _, ok := rc.lookup(reqs[access[i%len(access)]]); ok {
			hits++
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(hits)/float64(b.N), "hit_ratio")
	}
	st := rc.c.Stats()
	b.ReportMetric(float64(st.LiveBytes), "resident_bytes")
}

// BenchmarkRespUncachedCollectRender is the comparison point: every query
// pays provider collection (already served from the per-keyword TTL
// cache), entry building, filter evaluation, and rendering.
func BenchmarkRespUncachedCollectRender(b *testing.B) {
	eng, _ := benchRespEngine()
	ctx := context.Background()
	reqs := benchRespRequests(1 << 10) // population size is irrelevant uncached
	access := benchZipfAccess(len(reqs), 1<<16, 1.1)

	// Warm the per-keyword provider cache so the measured path is
	// collect-from-cache plus render, not provider execution.
	if _, _, _, err := eng.Answer(ctx, reqs[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := eng.Answer(ctx, reqs[access[i%len(access)]]); err != nil {
			b.Fatal(err)
		}
	}
}

package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"infogram/internal/bytecache"
	"infogram/internal/cache"
	"infogram/internal/clock"
	"infogram/internal/gsi"
	"infogram/internal/provider"
	"infogram/internal/xrsl"
)

func respTestRegistry(clk clock.Clock) *provider.Registry {
	reg := provider.NewRegistry(clk)
	reg.Register(provider.NewFuncProvider("Memory", func(ctx context.Context) (provider.Attributes, error) {
		return provider.Attributes{{Name: "free", Value: "1024"}}, nil
	}), provider.RegisterOptions{TTL: 10 * time.Second, Clock: clk})
	reg.Register(provider.NewFuncProvider("CPULoad", func(ctx context.Context) (provider.Attributes, error) {
		return provider.Attributes{{Name: "load", Value: "0.5"}}, nil
	}), provider.RegisterOptions{TTL: time.Minute, Clock: clk})
	return reg
}

// testRespCache builds a response cache with refresh-ahead off, which needs
// no fill engine.
func testRespCache(reg *provider.Registry, shards int, maxBytes int64, ttl time.Duration, clk clock.Clock) *respCache {
	return newRespCache(Config{Registry: reg, CacheShards: shards, CacheMaxBytes: maxBytes, CacheTTL: ttl, Clock: clk}, nil)
}

func TestRespCacheStoreLookup(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	reg := respTestRegistry(clk)
	rc := testRespCache(reg, 4, 1<<20, time.Minute, clk)
	req := &xrsl.InfoRequest{Keywords: []string{"Memory"}, Filter: "Memory:*"}

	if _, _, ok := rc.lookup(req); ok {
		t.Fatal("hit on empty cache")
	}
	rc.store(req, "rendered-body", false)
	body, neg, ok := rc.lookup(req)
	if !ok || neg != "" || body != "rendered-body" {
		t.Fatalf("lookup = (%q, %q, %v)", body, neg, ok)
	}

	// Distinct request dimensions must be distinct entries.
	other := &xrsl.InfoRequest{Keywords: []string{"Memory"}, Filter: "Memory:free"}
	if _, _, ok := rc.lookup(other); ok {
		t.Fatal("different filter hit the same entry")
	}
	xml := &xrsl.InfoRequest{Keywords: []string{"Memory"}, Filter: "Memory:*", Format: xrsl.FormatXML}
	if _, _, ok := rc.lookup(xml); ok {
		t.Fatal("different format hit the same entry")
	}
}

func TestRespCacheTTLCappedByProviderTTL(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	reg := respTestRegistry(clk)
	// Cache cap 1 minute, but Memory's provider TTL is 10s: the blob must
	// expire with its input.
	rc := testRespCache(reg, 4, 1<<20, time.Minute, clk)
	req := &xrsl.InfoRequest{Keywords: []string{"Memory"}}
	rc.store(req, "body", false)
	clk.Advance(11 * time.Second)
	if _, _, ok := rc.lookup(req); ok {
		t.Fatal("blob outlived its provider's TTL")
	}

	// CPULoad's TTL (1m) exceeds the cap: capped at the cache TTL.
	rc2 := testRespCache(reg, 4, 1<<20, 5*time.Second, clk)
	req2 := &xrsl.InfoRequest{Keywords: []string{"CPULoad"}}
	rc2.store(req2, "body", false)
	clk.Advance(6 * time.Second)
	if _, _, ok := rc2.lookup(req2); ok {
		t.Fatal("blob outlived the cache TTL cap")
	}
}

func TestRespCacheZeroTTLProviderNeverCached(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	reg := respTestRegistry(clk)
	reg.Register(provider.NewFuncProvider("Live", func(ctx context.Context) (provider.Attributes, error) {
		return provider.Attributes{{Name: "v", Value: "x"}}, nil
	}), provider.RegisterOptions{TTL: 0, Clock: clk})
	rc := testRespCache(reg, 4, 1<<20, time.Minute, clk)

	req := &xrsl.InfoRequest{Keywords: []string{"Live"}}
	rc.store(req, "body", false)
	if _, _, ok := rc.lookup(req); ok {
		t.Fatal("execute-every-request keyword was response-cached")
	}
	// A multi-keyword query covering the TTL-0 keyword is tainted too.
	mixed := &xrsl.InfoRequest{Keywords: []string{"Memory", "Live"}}
	rc.store(mixed, "body", false)
	if _, _, ok := rc.lookup(mixed); ok {
		t.Fatal("response covering a TTL-0 keyword was cached")
	}
}

func TestRespCacheNegativeShorterTTL(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	reg := respTestRegistry(clk)
	// Cap 40s → default negative TTL 10s.
	rc := testRespCache(reg, 4, 1<<20, 40*time.Second, clk)

	req := &xrsl.InfoRequest{Keywords: []string{"Ghost"}}
	rc.storeNegative(req, `provider: unknown keyword "Ghost"`)
	_, neg, ok := rc.lookup(req)
	if !ok || neg == "" {
		t.Fatalf("negative lookup = (%q, %v)", neg, ok)
	}
	clk.Advance(11 * time.Second)
	if _, _, ok := rc.lookup(req); ok {
		t.Fatal("negative entry outlived the negative TTL")
	}

	// Empty-match bodies use the negative TTL as well; a normal body
	// stored at the same instant survives.
	emptyReq := &xrsl.InfoRequest{Keywords: []string{"Memory"}, Filter: "NoSuch:*"}
	fullReq := &xrsl.InfoRequest{Keywords: []string{"Memory"}}
	rc.store(emptyReq, "", true)
	rc.store(fullReq, "body", false)
	clk.Advance(9 * time.Second) // < Memory's 10s provider TTL... both alive
	if _, _, ok := rc.lookup(emptyReq); !ok {
		t.Fatal("empty-match entry gone before negative TTL")
	}
	clk.Advance(2 * time.Second) // 11s: past negTTL 10s and provider TTL 10s
	if _, _, ok := rc.lookup(emptyReq); ok {
		t.Fatal("empty-match entry outlived the negative TTL")
	}
}

func TestRespCacheInvalidatedByRegistryGeneration(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	reg := respTestRegistry(clk)
	rc := testRespCache(reg, 4, 1<<20, time.Minute, clk)

	req := &xrsl.InfoRequest{Keywords: []string{"Ghost"}}
	rc.storeNegative(req, `provider: unknown keyword "Ghost"`)
	if _, neg, ok := rc.lookup(req); !ok || neg == "" {
		t.Fatal("negative entry not cached")
	}
	// Registering the keyword bumps the generation: the cached error must
	// become unreachable immediately, not after its TTL.
	reg.Register(provider.NewFuncProvider("Ghost", func(ctx context.Context) (provider.Attributes, error) {
		return provider.Attributes{{Name: "v", Value: "now-exists"}}, nil
	}), provider.RegisterOptions{TTL: time.Minute, Clock: clk})
	if _, _, ok := rc.lookup(req); ok {
		t.Fatal("stale negative entry served after re-registration")
	}

	// Positive entries are invalidated by membership churn too.
	pos := &xrsl.InfoRequest{Keywords: []string{"Memory"}}
	rc.store(pos, "body", false)
	reg.Unregister("Ghost")
	if _, _, ok := rc.lookup(pos); ok {
		t.Fatal("cached body survived a membership change")
	}
}

func TestRespCacheNotCacheable(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	rc := testRespCache(respTestRegistry(clk), 4, 1<<20, time.Minute, clk)
	cases := []struct {
		name string
		req  *xrsl.InfoRequest
	}{
		{"immediate", &xrsl.InfoRequest{Keywords: []string{"Memory"}, Response: cache.Immediate}},
		{"quality", &xrsl.InfoRequest{Keywords: []string{"Memory"}, Quality: 50}},
		{"schema", &xrsl.InfoRequest{Schema: true}},
		{"performance", &xrsl.InfoRequest{Keywords: []string{"Memory"}, Performance: true}},
	}
	for _, tc := range cases {
		if rc.cacheable(tc.req) {
			t.Errorf("%s request reported cacheable", tc.name)
		}
	}
	if !rc.cacheable(&xrsl.InfoRequest{Keywords: []string{"Memory"}}) {
		t.Error("plain cached-mode request reported uncacheable")
	}
}

// TestRespCacheLookupAllocationFree pins the full hit path — key build
// from the request, shard lookup, blob alias — at zero heap allocations.
func TestRespCacheLookupAllocationFree(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	rc := testRespCache(respTestRegistry(clk), 8, 1<<20, time.Minute, clk)
	req := &xrsl.InfoRequest{Keywords: []string{"Memory", "CPULoad"}, Filter: "Memory:*"}
	rc.store(req, "the rendered body", false)
	allocs := testing.AllocsPerRun(1000, func() {
		body, _, ok := rc.lookup(req)
		if !ok || body == "" {
			t.Fatal("unexpected miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("lookup allocates %.1f objects per hit; want 0", allocs)
	}
}

// TestRespCacheNegativeTTLFloor pins the regression: a small -cache-ttl
// used to shrink the negative TTL toward zero (ttl/4), making failed and
// empty answers effectively uncacheable — the exact flood the negative
// cache exists to absorb. It floors at one second, capped by the cache TTL
// itself.
func TestRespCacheNegativeTTLFloor(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	reg := respTestRegistry(clk)
	cases := []struct {
		ttl, want time.Duration
	}{
		{40 * time.Second, 10 * time.Second},             // ttl/4 above the floor: unchanged
		{2 * time.Second, time.Second},                   // ttl/4 = 500ms: floored to 1s
		{500 * time.Millisecond, 500 * time.Millisecond}, // floor capped at the cache TTL
	}
	for _, tc := range cases {
		rc := testRespCache(reg, 4, 1<<20, tc.ttl, clk)
		if got := rc.c.NegTTL(); got != tc.want {
			t.Errorf("ttl=%v: negTTL = %v; want %v", tc.ttl, got, tc.want)
		}
	}

	// Behavioral check at ttl=2s: before the floor, a negative entry died
	// after 500ms; it must now survive most of a second.
	rc := testRespCache(reg, 4, 1<<20, 2*time.Second, clk)
	req := &xrsl.InfoRequest{Keywords: []string{"Ghost"}}
	rc.storeNegative(req, `provider: unknown keyword "Ghost"`)
	clk.Advance(900 * time.Millisecond)
	if _, neg, ok := rc.lookup(req); !ok || neg == "" {
		t.Fatal("negative entry expired before the 1s floor")
	}
	clk.Advance(200 * time.Millisecond)
	if _, _, ok := rc.lookup(req); ok {
		t.Fatal("negative entry outlived the floored TTL")
	}
}

// TestRespCachePersistRoundTrip drives the snapshot lifecycle the way a
// restart does: one respCache snapshots, a second one — same provider
// population reached through a different registration history — restores
// warm with its keys re-stamped to the new generation, and a third with a
// different population refuses the snapshot and stays cold.
func TestRespCachePersistRoundTrip(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	path := filepath.Join(t.TempDir(), "respcache.snap")

	reg1 := respTestRegistry(clk)
	rc1 := testRespCache(reg1, 4, 1<<20, time.Minute, clk)
	req := &xrsl.InfoRequest{Keywords: []string{"Memory"}, Filter: "Memory:*"}
	negReq := &xrsl.InfoRequest{Keywords: []string{"Ghost"}}
	rc1.store(req, "warm-body", false)
	rc1.storeNegative(negReq, `provider: unknown keyword "Ghost"`)
	if err := rc1.c.Persister(path, "resp", 0, false).Snapshot(); err != nil {
		t.Fatal(err)
	}

	// Restart: the same keywords and TTLs, but extra registration churn so
	// the generation counter differs — exactly what restore re-stamps.
	reg2 := respTestRegistry(clk)
	reg2.Register(provider.NewFuncProvider("Temp", func(ctx context.Context) (provider.Attributes, error) {
		return nil, nil
	}), provider.RegisterOptions{TTL: time.Minute, Clock: clk})
	reg2.Unregister("Temp")
	if reg2.Generation() == reg1.Generation() {
		t.Fatal("test needs distinct registry generations")
	}
	rc2 := testRespCache(reg2, 4, 1<<20, time.Minute, clk)
	st, err := rc2.c.Persister(path, "resp", 0, false).Restore()
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 2 || st.DroppedExpired != 0 || st.DroppedKey != 0 {
		t.Fatalf("restore stats = %+v; want 2 restored", st)
	}
	if body, _, ok := rc2.lookup(req); !ok || body != "warm-body" {
		t.Fatalf("restored lookup = (%q, %v); want warm-body hit", body, ok)
	}
	if _, neg, ok := rc2.lookup(negReq); !ok || neg == "" {
		t.Fatal("restored negative entry not served")
	}

	// A restart after the entries' deadlines drops them: original deadlines
	// travel in the snapshot, never extended. Memory's 10s provider TTL has
	// lapsed; the negative entry (15s) is still alive.
	clk.Advance(11 * time.Second)
	rc3 := testRespCache(reg2, 4, 1<<20, time.Minute, clk)
	st, err = rc3.c.Persister(path, "resp", 0, false).Restore()
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 1 || st.DroppedExpired != 1 {
		t.Fatalf("post-expiry restore stats = %+v; want 1 restored, 1 dropped", st)
	}
	if _, _, ok := rc3.lookup(req); ok {
		t.Fatal("restore resurrected an entry past its deadline")
	}

	// A different provider population must refuse the snapshot wholesale:
	// the digest gates acceptance before a single entry is read.
	regOther := provider.NewRegistry(clk)
	regOther.Register(provider.NewFuncProvider("Disk", func(ctx context.Context) (provider.Attributes, error) {
		return provider.Attributes{{Name: "free", Value: "9"}}, nil
	}), provider.RegisterOptions{TTL: time.Minute, Clock: clk})
	rcOther := testRespCache(regOther, 4, 1<<20, time.Minute, clk)
	st, err = rcOther.c.Persister(path, "resp", 0, false).Restore()
	if !errors.Is(err, bytecache.ErrSnapshotRejected) {
		t.Fatalf("foreign-registry restore err = %v; want ErrSnapshotRejected", err)
	}
	if st.Restored != 0 || rcOther.c.Stats().Entries != 0 {
		t.Fatalf("foreign-registry restore brought entries back: %+v", st)
	}
}

// TestRespCacheRestoresParentLayoutSnapshot builds a respcache.snap by hand
// — keys spelled out byte by byte in the layout the response cache has
// always written, gen ‖ flags ‖ mode ‖ format NUL ‖ keywords NUL… NUL ‖
// filter — and restores it through the managed cache's persister: an
// upgrade across the managed-cache change restarts the gatekeeper warm.
func TestRespCacheRestoresParentLayoutSnapshot(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	reg := respTestRegistry(clk)
	const snapGen = 41
	key := binary.LittleEndian.AppendUint64(nil, snapGen)
	key = append(key, 0, byte(cache.Cached)) // flags (not info=all), response mode
	key = append(key, "\x00Memory\x00\x00Memory:*"...)
	old := bytecache.New(bytecache.Options{Clock: clk})
	old.Set(key, append([]byte{respOK}, "warm-body"...), time.Minute)
	path := filepath.Join(t.TempDir(), "respcache.snap")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.WriteSnapshot(file, bytecache.SnapshotMeta{Generation: snapGen, Digest: reg.Digest()}); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}

	rc := testRespCache(reg, 4, 1<<20, time.Minute, clk)
	st, err := rc.c.Persister(path, "resp", 0, false).Restore()
	if err != nil || st.Restored != 1 {
		t.Fatalf("restore = %+v, %v; want 1 restored", st, err)
	}
	req := &xrsl.InfoRequest{Keywords: []string{"Memory"}, Filter: "Memory:*"}
	if body, _, ok := rc.lookup(req); !ok || body != "warm-body" {
		t.Fatalf("lookup after restore = (%q, %v); want a warm hit", body, ok)
	}
}

// TestRespCacheRefill checks the gatekeeper's half of refresh-ahead — the
// callback the managed cache's workers run (the scan policy itself is
// tested in internal/bytecache): the provider is re-executed even though
// its own cache is fresh, the blob is swapped under the key clients look
// up, and a failing provider leaves the old blob serving.
func TestRespCacheRefill(t *testing.T) {
	clk := clock.NewFake(time.Unix(9000, 0))
	var calls atomic.Int32
	var fail atomic.Bool
	reg := provider.NewRegistry(clk)
	reg.Register(provider.NewFuncProvider("Hot", func(ctx context.Context) (provider.Attributes, error) {
		if fail.Load() {
			return nil, errors.New("probe down")
		}
		return provider.Attributes{{Name: "n", Value: fmt.Sprint(calls.Add(1))}}, nil
	}), provider.RegisterOptions{TTL: time.Hour, Clock: clk})
	eng := &infoEngine{resource: "test.resource", registry: reg}
	rc := newRespCache(Config{Registry: reg, CacheTTL: 10 * time.Second, Clock: clk}, eng)

	req := &xrsl.InfoRequest{Keywords: []string{"Hot"}}
	ctx := context.Background()
	body, empty, _, err := eng.Answer(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	rc.store(req, body, empty)
	first, _, _ := rc.lookup(req)

	clk.Advance(6 * time.Second)
	stored, err := rc.refill(ctx, req)
	if !stored || err != nil {
		t.Fatalf("refill = (%v, %v); want stored", stored, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("provider calls after refill = %d; want 2 (Immediate mode)", calls.Load())
	}
	// Past the original deadline the entry is still served, with the
	// refreshed body: the refill restarted its TTL under the same key.
	clk.Advance(6 * time.Second)
	second, _, ok := rc.lookup(req)
	if !ok || second == first {
		t.Fatalf("lookup after refill = (%v, changed %v); want a fresh hit", ok, second != first)
	}

	fail.Store(true)
	if stored, _ := rc.refill(ctx, req); stored {
		t.Fatal("refill reported a store while the provider was failing")
	}
	if got, _, ok := rc.lookup(req); !ok || got != second {
		t.Fatal("failed refill disturbed the serving blob")
	}
}

// TestNoTrackingWithoutRefreshAhead pins the tracker drift: with
// refresh-ahead off nothing will ever scan the candidate table, so a miss
// must not copy its key into it. At the parent the table saturated at 4096
// and every later miss still allocated a key copy and took its lock.
func TestNoTrackingWithoutRefreshAhead(t *testing.T) {
	s := NewService(Config{
		ResourceName: "test.resource", Registry: respTestRegistry(nil),
		CacheTTL: time.Minute, DisableTracing: true,
	})
	defer s.Close()
	ctx := context.Background()
	peer := &gsi.Peer{Identity: "/O=Grid/CN=alice"}
	for i := 0; i < 10000; i++ {
		src := fmt.Sprintf(`&(info=Memory)(filter="Memory:k%d")`, i)
		if f := s.handleSubmit(ctx, src, peer, "alice"); f.Verb != VerbResultLDIF {
			t.Fatalf("query %d answered %s %s", i, f.Verb, f.Payload)
		}
	}
	if got := s.resp.c.Stats().Sets; got != 10000 {
		t.Fatalf("cache stores = %d; want 10000 (queries not cacheable?)", got)
	}
	if got := s.resp.c.Tracked(); got != 0 {
		t.Fatalf("tracked requests with refresh-ahead off = %d; want 0", got)
	}
	if raceEnabled {
		return // the pooled scratch below allocates under -race
	}
	// A lower-case keyword keeps the registry lookup allocation-free, so
	// what is left is the store path itself: key and value are assembled in
	// pooled scratch and copied into the arena.
	req := &xrsl.InfoRequest{Keywords: []string{"memory"}, Filter: "Memory:free"}
	if allocs := testing.AllocsPerRun(200, func() { s.resp.store(req, "body", false) }); allocs != 0 {
		t.Fatalf("store allocates %.0f objects per call with refresh-ahead off; want 0", allocs)
	}
}

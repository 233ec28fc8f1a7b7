package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"infogram/internal/bytecache"
	"infogram/internal/cache"
	"infogram/internal/clock"
	"infogram/internal/gsi"
	"infogram/internal/provider"
	"infogram/internal/wire"
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

func testRespCache(reg *provider.Registry, maxBytes int64, ttl time.Duration, clk clock.Clock) *respCache {
	return newRespCache(Config{Registry: reg, CacheMaxBytes: maxBytes, CacheTTL: ttl, Clock: clk})
}

func TestRespCacheStoreLookup(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	reg := respTestRegistry(clk)
	rc := testRespCache(reg, 1<<20, time.Minute, clk)
	req := &xrsl.InfoRequest{Keywords: []string{"Memory"}, Filter: "Memory:*"}

	if _, _, ok := rc.lookup(req, rc.c.Generation()); ok {
		t.Fatal("hit on empty cache")
	}
	rc.store(req, rc.c.Generation(), "rendered-body", false)
	body, neg, ok := rc.lookup(req, rc.c.Generation())
	if !ok || neg != "" || body != "rendered-body" {
		t.Fatalf("lookup = (%q, %q, %v)", body, neg, ok)
	}

	// Distinct request dimensions must be distinct entries.
	other := &xrsl.InfoRequest{Keywords: []string{"Memory"}, Filter: "Memory:free"}
	if _, _, ok := rc.lookup(other, rc.c.Generation()); ok {
		t.Fatal("different filter hit the same entry")
	}
	xml := &xrsl.InfoRequest{Keywords: []string{"Memory"}, Filter: "Memory:*", Format: xrsl.FormatXML}
	if _, _, ok := rc.lookup(xml, rc.c.Generation()); ok {
		t.Fatal("different format hit the same entry")
	}
}

func TestRespCacheTTLCappedByProviderTTL(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	reg := respTestRegistry(clk)
	// Cache cap 1 minute, but Memory's provider TTL is 10s: the blob must
	// expire with its input.
	rc := testRespCache(reg, 1<<20, time.Minute, clk)
	req := &xrsl.InfoRequest{Keywords: []string{"Memory"}}
	rc.store(req, rc.c.Generation(), "body", false)
	clk.Advance(11 * time.Second)
	if _, _, ok := rc.lookup(req, rc.c.Generation()); ok {
		t.Fatal("blob outlived its provider's TTL")
	}

	// CPULoad's TTL (1m) exceeds the cap: capped at the cache TTL.
	rc2 := testRespCache(reg, 1<<20, 5*time.Second, clk)
	req2 := &xrsl.InfoRequest{Keywords: []string{"CPULoad"}}
	rc2.store(req2, rc2.c.Generation(), "body", false)
	clk.Advance(6 * time.Second)
	if _, _, ok := rc2.lookup(req2, rc2.c.Generation()); ok {
		t.Fatal("blob outlived the cache TTL cap")
	}
}

func TestRespCacheZeroTTLProviderNeverCached(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	reg := respTestRegistry(clk)
	reg.Register(provider.NewFuncProvider("Live", func(ctx context.Context) (provider.Attributes, error) {
		return provider.Attributes{{Name: "v", Value: "x"}}, nil
	}), provider.RegisterOptions{TTL: 0, Clock: clk})
	rc := testRespCache(reg, 1<<20, time.Minute, clk)

	req := &xrsl.InfoRequest{Keywords: []string{"Live"}}
	rc.store(req, rc.c.Generation(), "body", false)
	if _, _, ok := rc.lookup(req, rc.c.Generation()); ok {
		t.Fatal("execute-every-request keyword was response-cached")
	}
	// A multi-keyword query covering the TTL-0 keyword is tainted too.
	mixed := &xrsl.InfoRequest{Keywords: []string{"Memory", "Live"}}
	rc.store(mixed, rc.c.Generation(), "body", false)
	if _, _, ok := rc.lookup(mixed, rc.c.Generation()); ok {
		t.Fatal("response covering a TTL-0 keyword was cached")
	}
}

func TestRespCacheNegativeShorterTTL(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	reg := respTestRegistry(clk)
	// Cap 40s → default negative TTL 10s.
	rc := testRespCache(reg, 1<<20, 40*time.Second, clk)

	req := &xrsl.InfoRequest{Keywords: []string{"Ghost"}}
	rc.storeNegative(req, rc.c.Generation(), `provider: unknown keyword "Ghost"`)
	_, neg, ok := rc.lookup(req, rc.c.Generation())
	if !ok || neg == "" {
		t.Fatalf("negative lookup = (%q, %v)", neg, ok)
	}
	clk.Advance(11 * time.Second)
	if _, _, ok := rc.lookup(req, rc.c.Generation()); ok {
		t.Fatal("negative entry outlived the negative TTL")
	}

	// Empty-match bodies use the negative TTL as well; a normal body
	// stored at the same instant survives.
	emptyReq := &xrsl.InfoRequest{Keywords: []string{"Memory"}, Filter: "NoSuch:*"}
	fullReq := &xrsl.InfoRequest{Keywords: []string{"Memory"}}
	rc.store(emptyReq, rc.c.Generation(), "", true)
	rc.store(fullReq, rc.c.Generation(), "body", false)
	clk.Advance(9 * time.Second) // < Memory's 10s provider TTL... both alive
	if _, _, ok := rc.lookup(emptyReq, rc.c.Generation()); !ok {
		t.Fatal("empty-match entry gone before negative TTL")
	}
	clk.Advance(2 * time.Second) // 11s: past negTTL 10s and provider TTL 10s
	if _, _, ok := rc.lookup(emptyReq, rc.c.Generation()); ok {
		t.Fatal("empty-match entry outlived the negative TTL")
	}
}

func TestRespCacheInvalidatedByRegistryGeneration(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	reg := respTestRegistry(clk)
	rc := testRespCache(reg, 1<<20, time.Minute, clk)

	req := &xrsl.InfoRequest{Keywords: []string{"Ghost"}}
	rc.storeNegative(req, rc.c.Generation(), `provider: unknown keyword "Ghost"`)
	if _, neg, ok := rc.lookup(req, rc.c.Generation()); !ok || neg == "" {
		t.Fatal("negative entry not cached")
	}
	// Registering the keyword bumps the generation: the cached error must
	// become unreachable immediately, not after its TTL.
	reg.Register(provider.NewFuncProvider("Ghost", func(ctx context.Context) (provider.Attributes, error) {
		return provider.Attributes{{Name: "v", Value: "now-exists"}}, nil
	}), provider.RegisterOptions{TTL: time.Minute, Clock: clk})
	if _, _, ok := rc.lookup(req, rc.c.Generation()); ok {
		t.Fatal("stale negative entry served after re-registration")
	}

	// Positive entries are invalidated by membership churn too.
	pos := &xrsl.InfoRequest{Keywords: []string{"Memory"}}
	rc.store(pos, rc.c.Generation(), "body", false)
	reg.Unregister("Ghost")
	if _, _, ok := rc.lookup(pos, rc.c.Generation()); ok {
		t.Fatal("cached body survived a membership change")
	}
}

func TestRespCacheNotCacheable(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	rc := testRespCache(respTestRegistry(clk), 1<<20, time.Minute, clk)
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
	rc := testRespCache(respTestRegistry(clk), 1<<20, time.Minute, clk)
	req := &xrsl.InfoRequest{Keywords: []string{"Memory", "CPULoad"}, Filter: "Memory:*"}
	rc.store(req, rc.c.Generation(), "the rendered body", false)
	allocs := testing.AllocsPerRun(1000, func() {
		body, _, ok := rc.lookup(req, rc.c.Generation())
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
		rc := testRespCache(reg, 1<<20, tc.ttl, clk)
		if got := rc.c.NegTTL(); got != tc.want {
			t.Errorf("ttl=%v: negTTL = %v; want %v", tc.ttl, got, tc.want)
		}
	}

	// Behavioral check at ttl=2s: before the floor, a negative entry died
	// after 500ms; it must now survive most of a second.
	rc := testRespCache(reg, 1<<20, 2*time.Second, clk)
	req := &xrsl.InfoRequest{Keywords: []string{"Ghost"}}
	rc.storeNegative(req, rc.c.Generation(), `provider: unknown keyword "Ghost"`)
	clk.Advance(900 * time.Millisecond)
	if _, neg, ok := rc.lookup(req, rc.c.Generation()); !ok || neg == "" {
		t.Fatal("negative entry expired before the 1s floor")
	}
	clk.Advance(200 * time.Millisecond)
	if _, _, ok := rc.lookup(req, rc.c.Generation()); ok {
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
	rc1 := testRespCache(reg1, 1<<20, time.Minute, clk)
	req := &xrsl.InfoRequest{Keywords: []string{"Memory"}, Filter: "Memory:*"}
	negReq := &xrsl.InfoRequest{Keywords: []string{"Ghost"}}
	rc1.store(req, rc1.c.Generation(), "warm-body", false)
	rc1.storeNegative(negReq, rc1.c.Generation(), `provider: unknown keyword "Ghost"`)
	if err := rc1.c.Persister(path, "resp").Snapshot(); err != nil {
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
	rc2 := testRespCache(reg2, 1<<20, time.Minute, clk)
	st, err := rc2.c.Persister(path, "resp").Restore()
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 2 || st.DroppedExpired != 0 || st.DroppedKey != 0 {
		t.Fatalf("restore stats = %+v; want 2 restored", st)
	}
	if body, _, ok := rc2.lookup(req, rc2.c.Generation()); !ok || body != "warm-body" {
		t.Fatalf("restored lookup = (%q, %v); want warm-body hit", body, ok)
	}
	if _, neg, ok := rc2.lookup(negReq, rc2.c.Generation()); !ok || neg == "" {
		t.Fatal("restored negative entry not served")
	}

	// A restart after the entries' deadlines drops them: original deadlines
	// travel in the snapshot, never extended. Memory's 10s provider TTL has
	// lapsed; the negative entry (15s) is still alive.
	clk.Advance(11 * time.Second)
	rc3 := testRespCache(reg2, 1<<20, time.Minute, clk)
	st, err = rc3.c.Persister(path, "resp").Restore()
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 1 || st.DroppedExpired != 1 {
		t.Fatalf("post-expiry restore stats = %+v; want 1 restored, 1 dropped", st)
	}
	if _, _, ok := rc3.lookup(req, rc3.c.Generation()); ok {
		t.Fatal("restore resurrected an entry past its deadline")
	}

	// A different provider population must refuse the snapshot wholesale:
	// the digest gates acceptance before a single entry is read.
	regOther := provider.NewRegistry(clk)
	regOther.Register(provider.NewFuncProvider("Disk", func(ctx context.Context) (provider.Attributes, error) {
		return provider.Attributes{{Name: "free", Value: "9"}}, nil
	}), provider.RegisterOptions{TTL: time.Minute, Clock: clk})
	rcOther := testRespCache(regOther, 1<<20, time.Minute, clk)
	st, err = rcOther.c.Persister(path, "resp").Restore()
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

	rc := testRespCache(reg, 1<<20, time.Minute, clk)
	st, err := rc.c.Persister(path, "resp").Restore()
	if err != nil || st.Restored != 1 {
		t.Fatalf("restore = %+v, %v; want 1 restored", st, err)
	}
	req := &xrsl.InfoRequest{Keywords: []string{"Memory"}, Filter: "Memory:*"}
	if body, _, ok := rc.lookup(req, rc.c.Generation()); !ok || body != "warm-body" {
		t.Fatalf("lookup after restore = (%q, %v); want a warm hit", body, ok)
	}
}

// TestRespCacheStoreAllocationFree pins the store path at zero heap
// allocations on a populated cache: key and value are assembled in pooled
// scratch and copied into the arena, and nothing else is kept per stored
// answer.
func TestRespCacheStoreAllocationFree(t *testing.T) {
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
	if raceEnabled {
		return // the pooled scratch below allocates under -race
	}
	// A lower-case keyword keeps the registry lookup allocation-free, so
	// what is left is the store path itself.
	req := &xrsl.InfoRequest{Keywords: []string{"memory"}, Filter: "Memory:free"}
	gen := s.resp.c.Generation()
	if allocs := testing.AllocsPerRun(200, func() { s.resp.store(req, gen, "body", false) }); allocs != 0 {
		t.Fatalf("store allocates %.0f objects per call; want 0", allocs)
	}
}

// TestRespCacheStoresUnderTheLookupGeneration: a keyword registered while
// an all-keywords query is collecting shows in the next all-keywords
// query. The first answer was computed from the old registry, so it is
// stored under the generation its lookup saw, which the registration
// orphaned — not under the new one, where it would hide the keyword for
// the cache TTL.
func TestRespCacheStoresUnderTheLookupGeneration(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	reg := provider.NewRegistry(nil)
	reg.Register(provider.NewFuncProvider("Slow", func(ctx context.Context) (provider.Attributes, error) {
		once.Do(func() {
			close(entered)
			<-release
		})
		return provider.Attributes{{Name: "v", Value: "1"}}, nil
	}), provider.RegisterOptions{TTL: time.Hour})
	s := NewService(Config{
		ResourceName: "test.resource", Registry: reg,
		CacheTTL: time.Minute, DisableTracing: true,
	})
	defer s.Close()
	// selfmetrics executes on every request (TTL 0), which would make
	// every all-keywords answer uncacheable.
	reg.Unregister(provider.SelfMetricsKeyword)

	ctx := context.Background()
	peer := &gsi.Peer{Identity: "/O=Grid/CN=alice"}
	first := make(chan wire.Frame, 1)
	go func() { first <- s.handleSubmit(ctx, `&(info=all)`, peer, "alice") }()
	<-entered
	reg.Register(&provider.StaticProvider{
		KeywordName: "LateKeyword",
		Values:      provider.Attributes{{Name: "v", Value: "2"}},
	}, provider.RegisterOptions{TTL: time.Hour})
	close(release)
	if f := <-first; f.Verb != VerbResultLDIF {
		t.Fatalf("first query answered %s %s", f.Verb, f.Payload)
	}

	f := s.handleSubmit(ctx, `&(info=all)`, peer, "alice")
	if f.Verb != VerbResultLDIF || !strings.Contains(string(f.Payload), "LateKeyword") {
		t.Fatalf("all-keywords query after a mid-collect registration = %s %s; want LateKeyword in it (the old registry's answer served as current?)", f.Verb, f.Payload)
	}
	if got := s.resp.c.Stats().Sets; got != 2 {
		t.Fatalf("cache stores = %d; want 2 (answers not cacheable?)", got)
	}
}

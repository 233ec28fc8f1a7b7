package mds_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infogram/internal/clock"
	"infogram/internal/mds"
	"infogram/internal/provider"
	"infogram/internal/telemetry"
)

// telValue reads one label-free counter/gauge from a registry snapshot.
func telValue(reg *telemetry.Registry, name string) int64 {
	for _, p := range reg.Snapshot() {
		if p.Name == name && len(p.Labels) == 0 {
			return p.Value
		}
	}
	return -1
}

// countingRegistry registers TTL-0 providers (every collection executes)
// so execution counts observe exactly which keywords a search collected.
func countingRegistry(clk clock.Clock, names ...string) (*provider.Registry, map[string]*atomic.Int64) {
	reg := provider.NewRegistry(clk)
	counts := make(map[string]*atomic.Int64, len(names))
	for _, name := range names {
		n := &atomic.Int64{}
		counts[name] = n
		reg.Register(provider.NewFuncProvider(name, func(ctx context.Context) (provider.Attributes, error) {
			n.Add(1)
			return provider.Attributes{{Name: "v", Value: "1"}}, nil
		}), provider.RegisterOptions{TTL: 0, Clock: clk})
	}
	return reg, counts
}

// TestGRISCollectsOnlyMatchableKeywords verifies the projection fix: a
// filtered search executes only the providers its filter can match, and a
// filter that provably matches nothing skips collection entirely.
func TestGRISCollectsOnlyMatchableKeywords(t *testing.T) {
	f := newFabric(t)
	reg, counts := countingRegistry(nil, "Memory", "CPU")
	g := mds.NewGRIS(mds.GRISConfig{
		ResourceName: "res", Registry: reg, Credential: f.svc, Trust: f.trust,
	})
	if _, err := g.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	cl, err := mds.Dial(g.Addr(), f.user, f.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	entries, err := cl.Search(mds.SearchRequest{Filter: "(kw=Memory)"})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d", len(entries))
	}
	if got := counts["Memory"].Load(); got != 1 {
		t.Errorf("Memory executions = %d, want 1", got)
	}
	if got := counts["CPU"].Load(); got != 0 {
		t.Errorf("CPU executed %d times for a (kw=Memory) search", got)
	}

	// Namespaced attribute pins the keyword.
	if _, err := cl.Search(mds.SearchRequest{Filter: "(CPU:v=1)"}); err != nil {
		t.Fatal(err)
	}
	if got := counts["CPU"].Load(); got != 1 {
		t.Errorf("CPU executions = %d, want 1", got)
	}
	if got := counts["Memory"].Load(); got != 1 {
		t.Errorf("Memory executed for a (CPU:v=1) search")
	}

	// Provably-empty filter: no provider runs at all.
	entries, err = cl.Search(mds.SearchRequest{Filter: "(NoSuch:attr=1)"})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("impossible filter returned %d entries", len(entries))
	}
	if got := counts["Memory"].Load() + counts["CPU"].Load(); got != 2 {
		t.Errorf("providers executed for a provably-empty filter (total %d, want 2)", got)
	}

	// Unfiltered search still collects everything.
	if _, err := cl.Search(mds.SearchRequest{}); err != nil {
		t.Fatal(err)
	}
	if counts["Memory"].Load() != 2 || counts["CPU"].Load() != 2 {
		t.Errorf("unfiltered search collect counts = %d/%d, want 2/2",
			counts["Memory"].Load(), counts["CPU"].Load())
	}
}

// TestGRISResponseCache verifies repeated searches are served from the
// rendered-body cache (observable through the bytecache hit counter) and
// that provider churn invalidates cached bodies immediately via the
// registry generation.
func TestGRISResponseCache(t *testing.T) {
	f := newFabric(t)
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "Memory",
		Values:      provider.Attributes{{Name: "free", Value: "512"}},
	}, provider.RegisterOptions{TTL: time.Hour})
	tel := telemetry.NewRegistry()
	g := mds.NewGRIS(mds.GRISConfig{
		ResourceName: "res", Registry: reg, Credential: f.svc, Trust: f.trust,
		CacheTTL: time.Minute, Telemetry: tel,
	})
	if _, err := g.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	cl, err := mds.Dial(g.Addr(), f.user, f.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	first, err := cl.Search(mds.SearchRequest{Filter: "(kw=Memory)"})
	if err != nil {
		t.Fatal(err)
	}
	hits0 := telValue(tel, "infogram_bytecache_hits_total")
	for i := 0; i < 4; i++ {
		entries, err := cl.Search(mds.SearchRequest{Filter: "(kw=Memory)"})
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(first) {
			t.Fatalf("cached reply shape differs: %d vs %d", len(entries), len(first))
		}
	}
	if got := telValue(tel, "infogram_bytecache_hits_total"); got != hits0+4 {
		t.Fatalf("bytecache hits = %d, want %d", got, hits0+4)
	}

	// Registering a provider bumps the generation: the next unfiltered
	// search must see the new keyword, not a stale cached body.
	if _, err := cl.Search(mds.SearchRequest{}); err != nil {
		t.Fatal(err)
	}
	reg.Register(&provider.StaticProvider{
		KeywordName: "CPU",
		Values:      provider.Attributes{{Name: "count", Value: "8"}},
	}, provider.RegisterOptions{TTL: time.Hour})
	entries, err := cl.Search(mds.SearchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries after registration = %d, want 2 (stale cache served?)", len(entries))
	}
}

// TestGRISNegativeResultShorterTTL verifies empty-match bodies are cached
// under the negative TTL: served from cache inside it, re-evaluated after.
func TestGRISNegativeResultShorterTTL(t *testing.T) {
	f := newFabric(t)
	clk := clock.NewFake(time.Unix(9000, 0))
	reg := provider.NewRegistry(clk)
	reg.Register(&provider.StaticProvider{
		KeywordName: "Memory",
		Values:      provider.Attributes{{Name: "free", Value: "512"}},
	}, provider.RegisterOptions{TTL: time.Hour, Clock: clk})
	tel := telemetry.NewRegistry()
	g := mds.NewGRIS(mds.GRISConfig{
		ResourceName: "res", Registry: reg, Credential: f.svc, Trust: f.trust,
		Clock: clk, CacheTTL: 40 * time.Second, Telemetry: tel, // negative TTL defaults to 10s
	})

	ctx := context.Background()
	empty := mds.SearchRequest{Filter: "(Memory:nosuch=1)"}
	full := mds.SearchRequest{Filter: "(kw=Memory)"}
	for _, req := range []mds.SearchRequest{empty, full} {
		if _, err := g.Search(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	hits0 := telValue(tel, "infogram_bytecache_hits_total")
	for _, req := range []mds.SearchRequest{empty, full} {
		if _, err := g.Search(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if got := telValue(tel, "infogram_bytecache_hits_total"); got != hits0+2 {
		t.Fatalf("hits = %d, want %d (both bodies cached)", got, hits0+2)
	}

	// Past the negative TTL but inside the positive one: only the
	// empty-match body has expired, so only it forces a cache miss. (The
	// hit counter cannot discriminate here — the filter→keyword projection
	// entry also registers hits.)
	clk.Advance(11 * time.Second)
	misses0 := telValue(tel, "infogram_bytecache_misses_total")
	if _, err := g.Search(ctx, empty); err != nil {
		t.Fatal(err)
	}
	if got := telValue(tel, "infogram_bytecache_misses_total"); got != misses0+1 {
		t.Fatalf("misses = %d, want %d (empty-match body served past the negative TTL)", got, misses0+1)
	}
	if _, err := g.Search(ctx, full); err != nil {
		t.Fatal(err)
	}
	if got := telValue(tel, "infogram_bytecache_misses_total"); got != misses0+1 {
		t.Fatal("positive body not served inside its TTL")
	}
}

// TestGIISCacheInvalidatedByMembership verifies the GIIS aggregate cache
// is keyed by the membership generation: a new registrant invalidates it
// at once, while soft-state re-registration of a live member does not.
func TestGIISCacheInvalidatedByMembership(t *testing.T) {
	f := newFabric(t)
	g1 := startGRIS(t, f, "res1")
	g2 := startGRIS(t, f, "res2")
	tel := telemetry.NewRegistry()
	giis := mds.NewGIIS(mds.GIISConfig{
		OrgName: "vo", Credential: f.svc, Trust: f.trust,
		CacheTTL: time.Hour, Telemetry: tel,
	})
	if _, err := giis.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer giis.Close()
	giis.Register(g1.Addr())

	ctx := context.Background()
	entries, err := giis.Search(ctx, mds.SearchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(entries))
	}

	// Soft-state refresh of a live member must not invalidate the cache.
	giis.Register(g1.Addr())
	hits0 := telValue(tel, "infogram_bytecache_hits_total")
	if _, err := giis.Search(ctx, mds.SearchRequest{}); err != nil {
		t.Fatal(err)
	}
	if got := telValue(tel, "infogram_bytecache_hits_total"); got != hits0+1 {
		t.Fatalf("hits = %d, want %d (re-registration thrashed the cache)", got, hits0+1)
	}

	// A genuinely new member must invalidate it immediately.
	giis.Register(g2.Addr())
	entries, err = giis.Search(ctx, mds.SearchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("entries after new member = %d, want 4 (stale cache served?)", len(entries))
	}
}

// TestGRISStoresUnderTheLookupGeneration: a keyword registered while a
// search is collecting shows in the next empty-filter search. The first
// search's answer was computed from the old registry, so it is stored
// under the generation its lookup saw, which the registration orphaned —
// not under the new one, where it would hide the keyword for CacheTTL.
func TestGRISStoresUnderTheLookupGeneration(t *testing.T) {
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
	g := mds.NewGRIS(mds.GRISConfig{ResourceName: "res", Registry: reg, CacheTTL: time.Minute})
	defer g.Close()

	ctx := context.Background()
	first := make(chan error, 1)
	go func() {
		_, err := g.Search(ctx, mds.SearchRequest{})
		first <- err
	}()
	<-entered
	reg.Register(&provider.StaticProvider{
		KeywordName: "Late",
		Values:      provider.Attributes{{Name: "v", Value: "2"}},
	}, provider.RegisterOptions{TTL: time.Hour})
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}

	entries, err := g.Search(ctx, mds.SearchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries after a mid-collect registration = %d, want 2 (the old registry's answer served as current?)", len(entries))
	}
}

package mds_test

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"infogram/internal/clock"
	"infogram/internal/mds"
	"infogram/internal/provider"
	"infogram/internal/telemetry"
)

// cachedCountingRegistry is countingRegistry with a cacheable TTL, so
// execution counts observe exactly when the warm cache saved a collect.
func cachedCountingRegistry(clk clock.Clock, names ...string) (*provider.Registry, map[string]*atomic.Int64) {
	reg := provider.NewRegistry(clk)
	counts := make(map[string]*atomic.Int64, len(names))
	for _, name := range names {
		n := &atomic.Int64{}
		counts[name] = n
		reg.Register(provider.NewFuncProvider(name, func(ctx context.Context) (provider.Attributes, error) {
			n.Add(1)
			return provider.Attributes{{Name: "v", Value: "1"}}, nil
		}), provider.RegisterOptions{TTL: time.Hour, Clock: clk})
	}
	return reg, counts
}

// TestGRISPersistWarmRestart snapshots one GRIS's response cache and
// restores it into a second GRIS built over the same provider population
// but a different registration history: the restored server answers the
// same search from the snapshot with zero provider executions, the
// restart-to-warm-hit property the persistence layer exists for.
func TestGRISPersistWarmRestart(t *testing.T) {
	f := newFabric(t)
	clk := clock.NewFake(time.Unix(9000, 0))
	path := filepath.Join(t.TempDir(), "gris.snap")
	ctx := context.Background()
	req := mds.SearchRequest{Filter: "(kw=Memory)"}

	reg1, counts1 := cachedCountingRegistry(clk, "Memory", "CPU")
	g1 := mds.NewGRIS(mds.GRISConfig{
		ResourceName: "res", Registry: reg1, Credential: f.svc, Trust: f.trust,
		Clock: clk, CacheTTL: time.Hour,
	})
	if _, err := g1.Search(ctx, req); err != nil {
		t.Fatal(err)
	}
	if counts1["Memory"].Load() != 1 {
		t.Fatalf("Memory executions = %d", counts1["Memory"].Load())
	}
	if err := g1.NewPersister(path).Snapshot(); err != nil {
		t.Fatal(err)
	}

	// Restart: same keywords and TTLs, but extra churn so the registry
	// generation differs and restore must re-stamp every key.
	reg2, counts2 := cachedCountingRegistry(clk, "Memory", "CPU")
	reg2.Register(provider.NewFuncProvider("Temp", func(ctx context.Context) (provider.Attributes, error) {
		return nil, nil
	}), provider.RegisterOptions{TTL: time.Minute, Clock: clk})
	reg2.Unregister("Temp")
	if reg2.Generation() == reg1.Generation() {
		t.Fatal("test needs distinct registry generations")
	}
	tel := telemetry.NewRegistry()
	g2 := mds.NewGRIS(mds.GRISConfig{
		ResourceName: "res", Registry: reg2, Credential: f.svc, Trust: f.trust,
		Clock: clk, CacheTTL: time.Hour, Telemetry: tel,
	})
	st, err := g2.NewPersister(path).Restore()
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored == 0 {
		t.Fatalf("restore stats = %+v; want a warm cache", st)
	}
	entries, err := g2.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("restored search returned %d entries", len(entries))
	}
	if got := counts2["Memory"].Load() + counts2["CPU"].Load(); got != 0 {
		t.Fatalf("restored server executed %d providers; want 0 (snapshot answered)", got)
	}
	if hits := telValue(tel, "infogram_bytecache_hits_total"); hits == 0 {
		t.Fatal("restored search did not register a cache hit")
	}
}

// TestGRISPersistForeignRegistryColdStart: a snapshot taken under one
// provider population is refused by a server configured with another —
// the digest gates acceptance, the server starts cold and collects.
func TestGRISPersistForeignRegistryColdStart(t *testing.T) {
	f := newFabric(t)
	clk := clock.NewFake(time.Unix(9000, 0))
	path := filepath.Join(t.TempDir(), "gris.snap")
	ctx := context.Background()

	reg1, _ := cachedCountingRegistry(clk, "Memory", "CPU")
	g1 := mds.NewGRIS(mds.GRISConfig{
		ResourceName: "res", Registry: reg1, Credential: f.svc, Trust: f.trust,
		Clock: clk, CacheTTL: time.Hour,
	})
	if _, err := g1.Search(ctx, mds.SearchRequest{}); err != nil {
		t.Fatal(err)
	}
	if err := g1.NewPersister(path).Snapshot(); err != nil {
		t.Fatal(err)
	}

	// Different keyword set: the snapshot must be rejected wholesale.
	reg2, counts2 := cachedCountingRegistry(clk, "Disk")
	g2 := mds.NewGRIS(mds.GRISConfig{
		ResourceName: "res", Registry: reg2, Credential: f.svc, Trust: f.trust,
		Clock: clk, CacheTTL: time.Hour,
	})
	st, err := g2.NewPersister(path).Restore()
	if err == nil || st.Restored != 0 {
		t.Fatalf("foreign snapshot accepted: stats=%+v err=%v", st, err)
	}
	if _, err := g2.Search(ctx, mds.SearchRequest{}); err != nil {
		t.Fatal(err)
	}
	if counts2["Disk"].Load() != 1 {
		t.Fatalf("cold server collected %d times; want 1", counts2["Disk"].Load())
	}
}

// TestGIISPersistWarmRestart snapshots a GIIS aggregate cache and restores
// it into a second GIIS whose members were pre-registered (the documented
// ordering): the restored index answers from the snapshot even when every
// member is unreachable. An index restored before registering its members
// has an empty membership digest and must refuse the snapshot.
func TestGIISPersistWarmRestart(t *testing.T) {
	f := newFabric(t)
	path := filepath.Join(t.TempDir(), "giis.snap")
	ctx := context.Background()
	g1 := startGRIS(t, f, "res1")
	g2 := startGRIS(t, f, "res2")

	giis1 := mds.NewGIIS(mds.GIISConfig{
		OrgName: "vo", Credential: f.svc, Trust: f.trust, CacheTTL: time.Hour,
	})
	giis1.Register(g1.Addr())
	giis1.Register(g2.Addr())
	entries, err := giis1.Search(ctx, mds.SearchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("fan-out entries = %d, want 4", len(entries))
	}
	if err := giis1.NewPersister(path).Snapshot(); err != nil {
		t.Fatal(err)
	}

	// The members go away: only the snapshot can still answer.
	g1.Close()
	g2.Close()

	// Restoring before the members are registered: empty membership digest,
	// snapshot refused, nothing restored.
	bare := mds.NewGIIS(mds.GIISConfig{
		OrgName: "vo", Credential: f.svc, Trust: f.trust, CacheTTL: time.Hour,
	})
	if st, err := bare.NewPersister(path).Restore(); err == nil || st.Restored != 0 {
		t.Fatalf("memberless GIIS accepted the snapshot: stats=%+v err=%v", st, err)
	}

	// The correct boot order: register the configured members, then restore.
	giis2 := mds.NewGIIS(mds.GIISConfig{
		OrgName: "vo", Credential: f.svc, Trust: f.trust, CacheTTL: time.Hour,
	})
	giis2.Register(g1.Addr())
	giis2.Register(g2.Addr())
	st, err := giis2.NewPersister(path).Restore()
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored == 0 {
		t.Fatalf("restore stats = %+v; want a warm cache", st)
	}
	entries, err = giis2.Search(ctx, mds.SearchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("restored search returned %d entries; want 4 from the snapshot (members are down)", len(entries))
	}
}

// TestGRISNegativeTTLFloor pins the regression: a small CacheTTL used to
// shrink the default negative TTL (CacheTTL/4) far below a second, making
// empty-match bodies effectively uncacheable. It now floors at 1s.
func TestGRISNegativeTTLFloor(t *testing.T) {
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
		Clock: clk, CacheTTL: 2 * time.Second, Telemetry: tel, // TTL/4 = 500ms < the 1s floor
	})

	ctx := context.Background()
	empty := mds.SearchRequest{Filter: "(Memory:nosuch=1)"}
	if _, err := g.Search(ctx, empty); err != nil {
		t.Fatal(err)
	}
	// 900ms in: past the un-floored 500ms, inside the 1s floor — cached.
	clk.Advance(900 * time.Millisecond)
	misses0 := telValue(tel, "infogram_bytecache_misses_total")
	if _, err := g.Search(ctx, empty); err != nil {
		t.Fatal(err)
	}
	if got := telValue(tel, "infogram_bytecache_misses_total"); got != misses0 {
		t.Fatalf("misses = %d, want %d (negative entry expired before the floor)", got, misses0)
	}
	// 1.1s in: past the floor — re-evaluated.
	clk.Advance(200 * time.Millisecond)
	if _, err := g.Search(ctx, empty); err != nil {
		t.Fatal(err)
	}
	if got := telValue(tel, "infogram_bytecache_misses_total"); got == misses0 {
		t.Fatal("negative entry outlived the floored TTL")
	}
}

package core_test

import (
	"context"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"infogram/internal/core"
	"infogram/internal/provider"
	"infogram/internal/telemetry"
)

// counterValue reads one counter/gauge from a registry snapshot (label-
// free series only).
func counterValue(reg *telemetry.Registry, name string) int64 {
	for _, p := range reg.Snapshot() {
		if p.Name == name && len(p.Labels) == 0 {
			return p.Value
		}
	}
	return -1
}

// TestResponseCacheServesRepeatQueries drives the same filtered query
// repeatedly over the wire and verifies the rendered blob is served from
// the byte cache (hits counted) with the body identical to the first
// answer.
func TestResponseCacheServesRepeatQueries(t *testing.T) {
	reg := provider.NewRegistry(nil)
	var execs atomic.Int64
	reg.Register(provider.NewFuncProvider("Memory", func(ctx context.Context) (provider.Attributes, error) {
		execs.Add(1)
		return provider.Attributes{{Name: "free", Value: "1024"}, {Name: "total", Value: "2048"}}, nil
	}), provider.RegisterOptions{TTL: time.Hour})

	g := newTestGridConfig(t, reg, nil, func(cfg *core.Config) {
		cfg.CacheTTL = time.Minute
	})
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	first, err := cl.QueryRaw(`&(info=Memory)(filter="Memory:free")`)
	if err != nil {
		t.Fatal(err)
	}
	tel := g.svc.Telemetry()
	if got := counterValue(tel, "infogram_bytecache_misses_total"); got < 1 {
		t.Fatalf("bytecache misses after first query = %d; want >= 1", got)
	}
	for i := 0; i < 5; i++ {
		res, err := cl.QueryRaw(`&(info=Memory)(filter="Memory:free")`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Entries) != len(first.Entries) {
			t.Fatalf("cached reply shape differs: %d vs %d entries", len(res.Entries), len(first.Entries))
		}
		v, _ := res.Entries[0].Get("Memory:free")
		if v != "1024" {
			t.Fatalf("cached reply Memory:free = %q", v)
		}
		if _, ok := res.Entries[0].Get("Memory:total"); ok {
			t.Fatal("filter projection lost on cached reply")
		}
	}
	if got := counterValue(tel, "infogram_bytecache_hits_total"); got != 5 {
		t.Fatalf("bytecache hits = %d; want 5", got)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("provider executions = %d; want 1", got)
	}
	if got := counterValue(tel, "infogram_bytecache_resident_bytes"); got <= 0 {
		t.Fatalf("resident bytes gauge = %d; want > 0", got)
	}
}

// TestResponseCacheNegativeUnknownKeyword verifies a query for an
// unregistered keyword is cached as a negative entry — and that
// registering the keyword makes the cached error unreachable immediately
// (generation-keyed invalidation), not after the negative TTL.
func TestResponseCacheNegativeUnknownKeyword(t *testing.T) {
	reg := provider.NewRegistry(nil)
	reg.Register(provider.NewFuncProvider("Base", func(ctx context.Context) (provider.Attributes, error) {
		return provider.Attributes{{Name: "v", Value: "1"}}, nil
	}), provider.RegisterOptions{TTL: time.Hour})

	g := newTestGridConfig(t, reg, nil, func(cfg *core.Config) {
		cfg.CacheTTL = time.Minute
	})
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 3; i++ {
		_, err := cl.QueryRaw("&(info=Ghost)")
		if err == nil {
			t.Fatal("unknown keyword did not error")
		}
		if !strings.Contains(err.Error(), "Ghost") {
			t.Fatalf("error %v does not name the keyword", err)
		}
	}
	tel := g.svc.Telemetry()
	if got := counterValue(tel, "infogram_respcache_negative_hits_total"); got != 2 {
		t.Fatalf("negative hits = %d; want 2 (first query fills, two hit)", got)
	}

	// Registration must invalidate the cached error at once.
	var n atomic.Int64
	g.svc.Registry().Register(provider.NewFuncProvider("Ghost", func(ctx context.Context) (provider.Attributes, error) {
		return provider.Attributes{{Name: "n", Value: strconv.FormatInt(n.Add(1), 10)}}, nil
	}), provider.RegisterOptions{TTL: time.Hour})
	res, err := cl.QueryRaw("&(info=Ghost)")
	if err != nil {
		t.Fatalf("query after registration still failing: %v", err)
	}
	if v, _ := res.Entries[0].Get("Ghost:n"); v != "1" {
		t.Fatalf("Ghost:n = %q after registration", v)
	}
}

// TestResponseCacheEmptyFilterCached verifies an empty-match filter
// result is cached (the evaluation cost is the same) and served from
// cache on repeat.
func TestResponseCacheEmptyFilterCached(t *testing.T) {
	reg := provider.NewRegistry(nil)
	var execs atomic.Int64
	reg.Register(provider.NewFuncProvider("Memory", func(ctx context.Context) (provider.Attributes, error) {
		execs.Add(1)
		return provider.Attributes{{Name: "free", Value: "1024"}}, nil
	}), provider.RegisterOptions{TTL: time.Hour})
	g := newTestGridConfig(t, reg, nil, func(cfg *core.Config) {
		cfg.CacheTTL = time.Minute
	})
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 3; i++ {
		res, err := cl.QueryRaw(`&(info=Memory)(filter="NoSuchAttr:*")`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Entries) != 0 {
			t.Fatalf("empty-match filter returned %d entries", len(res.Entries))
		}
	}
	tel := g.svc.Telemetry()
	if got := counterValue(tel, "infogram_bytecache_hits_total"); got != 2 {
		t.Fatalf("bytecache hits = %d; want 2", got)
	}
}

// TestResponseCacheImmediateBypasses verifies response=immediate never
// answers from the response cache.
func TestResponseCacheImmediateBypasses(t *testing.T) {
	reg := provider.NewRegistry(nil)
	var execs atomic.Int64
	reg.Register(provider.NewFuncProvider("Counter", func(ctx context.Context) (provider.Attributes, error) {
		return provider.Attributes{{Name: "n", Value: strconv.FormatInt(execs.Add(1), 10)}}, nil
	}), provider.RegisterOptions{TTL: time.Hour})
	g := newTestGridConfig(t, reg, nil, func(cfg *core.Config) {
		cfg.CacheTTL = time.Minute
	})
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.QueryRaw("&(info=Counter)"); err != nil {
		t.Fatal(err)
	}
	res, err := cl.QueryRaw("&(info=Counter)(response=immediate)")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Entries[0].Get("Counter:n"); v != "2" {
		t.Fatalf("immediate read = %q; want 2 (fresh execution)", v)
	}
}

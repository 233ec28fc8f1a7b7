// Warm-restart suite: the durability acceptance scenario for the response
// cache snapshot. A service with a state directory and the response cache
// enabled answers a keyed query population, is shut down, and a second
// service on the same directory restores the snapshot: previously cached
// keys are answered from the snapshot with ZERO provider invocations
// (verified by provider-execution counters), and a corrupted snapshot
// degrades to a cold start that still answers correctly.
package integration_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"infogram/internal/bytecache"
	"infogram/internal/core"
	"infogram/internal/provider"
	"infogram/internal/telemetry"
)

const warmKeys = 16

// warmGen is one service generation over a shared cache state directory:
// its own registry (the same population every generation, exactly as a
// restarted process rebuilds it from config) with a per-generation
// provider-execution counter. It wires its response-cache persister the
// way infogram-server does: started after NewService, before Listen, and
// closed after the service.
type warmGen struct {
	svc     *core.Service
	persist *bytecache.Persister
	cl      *core.Client
	tel     *telemetry.Registry
	execs   *atomic.Int64
}

func startWarmGen(t *testing.T, d *deployment, stateDir string) *warmGen {
	t.Helper()
	g := &warmGen{execs: &atomic.Int64{}, tel: telemetry.NewRegistry()}
	reg := provider.NewRegistry(nil)
	reg.Register(provider.NewFuncProvider("Payload", func(ctx context.Context) (provider.Attributes, error) {
		g.execs.Add(1)
		attrs := make(provider.Attributes, 0, warmKeys)
		for i := 0; i < warmKeys; i++ {
			attrs = append(attrs, provider.Attr{
				Name: fmt.Sprintf("key%04d", i), Value: "payload-value",
			})
		}
		return attrs, nil
	}), provider.RegisterOptions{TTL: time.Hour})
	g.svc = core.NewService(core.Config{
		ResourceName: "warm-site",
		Credential:   d.svcCred, Trust: d.trust, Gridmap: d.gridmap,
		Registry:  reg,
		Backends:  d.backends(),
		Telemetry: g.tel,
		CacheTTL:  time.Hour,
	})
	g.persist = g.svc.NewPersister(filepath.Join(stateDir, "respcache.snap"))
	_, _ = g.persist.Start() // every failure mode is a cold start, read from telemetry
	addr, err := g.svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g.cl, err = core.Dial(addr, d.user, d.trust)
	if err != nil {
		g.close()
		t.Fatal(err)
	}
	return g
}

func (g *warmGen) close() {
	if g.cl != nil {
		g.cl.Close()
	}
	g.svc.Close()
	g.persist.Close() // the final snapshot
}

// queryKeys issues the keyed population — one distinct filter per key, so
// each key occupies its own response-cache slot — and fails on any wrong
// answer.
func (g *warmGen) queryKeys(t *testing.T) {
	t.Helper()
	for i := 0; i < warmKeys; i++ {
		res, err := g.cl.QueryRaw(fmt.Sprintf("&(info=Payload)(filter=\"Payload:key%04d*\")", i))
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if len(res.Entries) != 1 {
			t.Fatalf("key %d: %d entries; want the one filtered Payload entry", i, len(res.Entries))
		}
		if v, _ := res.Entries[0].Get(fmt.Sprintf("Payload:key%04d", i)); v != "payload-value" {
			t.Fatalf("key %d: wrong value %q", i, v)
		}
	}
}

func warmTelValue(reg *telemetry.Registry, name string) int64 {
	for _, p := range reg.Snapshot() {
		if p.Name == name {
			return p.Value
		}
	}
	return 0
}

func TestCacheSnapshotKillAndRestart(t *testing.T) {
	d := newDeployment(t)
	stateDir := t.TempDir()

	// --- Generation A: fill the cache, shut down (final snapshot). ---
	genA := startWarmGen(t, d, stateDir)
	genA.queryKeys(t)
	if got := genA.execs.Load(); got != 1 {
		// One provider execution fills the hour-long per-keyword cache; all
		// sixteen keyed renderings read from it.
		t.Fatalf("generation A executed the provider %d times; want 1", got)
	}
	genA.queryKeys(t) // all response-cache hits now
	if got := genA.execs.Load(); got != 1 {
		t.Fatalf("repeat queries executed the provider (%d executions)", got)
	}
	genA.close() // the persister's Close writes the final snapshot

	snapPath := filepath.Join(stateDir, "respcache.snap")
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("no snapshot after shutdown: %v", err)
	}

	// --- Generation B: restore, answer the same keys with ZERO provider
	// invocations. ---
	genB := startWarmGen(t, d, stateDir)
	if got := warmTelValue(genB.tel, "infogram_cache_restored_entries"); got < warmKeys {
		t.Fatalf("restored %d entries; want >= %d", got, warmKeys)
	}
	genB.queryKeys(t)
	if got := genB.execs.Load(); got != 0 {
		t.Fatalf("restarted server executed the provider %d times; want 0 (snapshot answers)", got)
	}
	genB.close()

	// --- Generation C: a corrupted snapshot degrades to a cold start. ---
	blob, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	// Byte 8 is the first CRC-covered payload byte of the header frame (the
	// 'I' of the snapshot magic): flipping it is a guaranteed checksum
	// mismatch, not a torn tail.
	blob[8] ^= 0xFF
	if err := os.WriteFile(snapPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	genC := startWarmGen(t, d, stateDir)
	defer genC.close()
	if got := warmTelValue(genC.tel, "infogram_cache_restore_cold_total"); got != 1 {
		t.Fatalf("cold-start counter = %d; want 1", got)
	}
	if got := warmTelValue(genC.tel, "infogram_cache_restored_entries"); got != 0 {
		t.Fatalf("corrupt snapshot restored %d entries; want 0", got)
	}
	genC.queryKeys(t) // still answers correctly, via the provider
	if got := genC.execs.Load(); got != 1 {
		t.Fatalf("cold generation executed the provider %d times; want 1", got)
	}
}

package mds

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"infogram/internal/clock"
	"infogram/internal/gsi"
	"infogram/internal/provider"
	"infogram/internal/session"
)

// poolFixture is a GIIS on a fake clock over GRIS members it can restart
// on their own addresses.
type poolFixture struct {
	clk   *clock.Fake
	svc   *gsi.Credential
	trust *gsi.TrustStore
}

func newPoolFixture(t *testing.T) *poolFixture {
	t.Helper()
	clk := clock.NewFake(time.Now())
	ca, err := gsi.NewCA("/O=Grid/CN=CA", time.Hour, clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ca.IssueIdentity("/O=Grid/CN=mds", time.Hour, clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	return &poolFixture{clk: clk, svc: svc, trust: gsi.NewTrustStore(ca.Certificate())}
}

// startGRIS serves resource res on addr, retrying while a just-closed
// listener's port lingers.
func (f *poolFixture) startGRIS(t *testing.T, res, addr string) (*GRIS, string) {
	t.Helper()
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "CPU",
		Values:      provider.Attributes{{Name: "count", Value: "8"}},
	}, provider.RegisterOptions{TTL: time.Minute})
	gris := NewGRIS(GRISConfig{ResourceName: res, Registry: reg, Credential: f.svc, Trust: f.trust, Clock: f.clk})
	deadline := time.Now().Add(10 * time.Second)
	for {
		bound, err := gris.Listen(addr)
		if err == nil {
			t.Cleanup(func() { gris.Close() })
			return gris, bound
		}
		if time.Now().After(deadline) {
			t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (g *GIIS) memberPoolFor(addr string) *session.Pool[*Client] {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.pools[addr]
}

// searchOK runs one fan-out and fails on a degraded reply.
func searchOK(t *testing.T, g *GIIS) {
	t.Helper()
	body, err := g.SearchLDIF(context.Background(), SearchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "degraded") {
		t.Fatalf("degraded reply:\n%s", body)
	}
}

// TestGIISExpiryClosesPooledConns: when a registrant expires, Members
// closes its pool, so the expired member's idle connection is closed and
// a lease checked out before the expiry is closed on return, not pooled.
func TestGIISExpiryClosesPooledConns(t *testing.T) {
	f := newPoolFixture(t)
	_, addr1 := f.startGRIS(t, "res1", "127.0.0.1:0")
	_, addr2 := f.startGRIS(t, "res2", "127.0.0.1:0")
	addrs := []string{addr1, addr2}
	g := NewGIIS(GIISConfig{OrgName: "vo", Credential: f.svc, Trust: f.trust, RegistrationTTL: 30 * time.Second, Clock: f.clk})
	defer g.Close()
	for _, addr := range addrs {
		g.Register(addr)
	}
	searchOK(t, g)
	pool := g.memberPoolFor(addrs[0])
	if open, idle := pool.Stats(); open != 1 || idle != 1 {
		t.Fatalf("after one search: res1's pool has %d open, %d idle; want 1, 1", open, idle)
	}
	// Lease the idle connection and a second, fresh one; return the first.
	ctx := context.Background()
	expiring, err := pool.Checkout(ctx)
	if err != nil {
		t.Fatal(err)
	}
	late, err := pool.Checkout(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pool.Checkin(expiring)

	f.clk.Advance(time.Minute)
	g.Register(addrs[1]) // res2 re-registers; res1 lets its registration lapse
	if got := g.Members(); !reflect.DeepEqual(got, addrs[1:]) {
		t.Fatalf("members after expiry = %v, want %v", got, addrs[1:])
	}
	if g.memberPoolFor(addrs[0]) != nil || g.memberPoolFor(addrs[1]) == nil {
		t.Fatal("after res1 expired: want res1's pool dropped and res2's kept")
	}
	if _, err := expiring.SearchLDIFContext(ctx, SearchRequest{}); err == nil {
		t.Fatal("the expired member's pooled client is still open")
	}

	pool.Checkin(late)
	if open, idle := pool.Stats(); open != 0 || idle != 0 {
		t.Fatalf("late checkin into the expired pool: %d open, %d idle; want 0, 0", open, idle)
	}
	if _, err := late.SearchLDIFContext(ctx, SearchRequest{}); err == nil {
		t.Fatal("a late lease returned to the expired pool was left open")
	}
}

// TestGIISMemberRestart: an idle member connection is pinged before reuse
// once it is older than the pool's one-second health check. A live member
// answers the ping and keeps its one connection; a member restarted on the
// same address fails it, and the search dials the new process instead of
// reporting the member missing. Under steady traffic no lease is old
// enough to be pinged: the search itself meets the restart, drops every
// stale connection and retries once on a fresh dial, still not degraded.
func TestGIISMemberRestart(t *testing.T) {
	f := newPoolFixture(t)
	gris, addr := f.startGRIS(t, "res1", "127.0.0.1:0")
	g := NewGIIS(GIISConfig{OrgName: "vo", Credential: f.svc, Trust: f.trust, Clock: f.clk})
	defer g.Close()
	g.Register(addr)

	searchOK(t, g)
	f.clk.Advance(2 * time.Second)
	searchOK(t, g)
	if open, _ := g.memberPoolFor(addr).Stats(); open != 1 {
		t.Fatalf("pool holds %d connections after a pinged reuse, want 1", open)
	}
	if n := gris.AcceptedConns(); n != 1 {
		t.Fatalf("member accepted %d connections, want 1: the ping did not keep the idle one", n)
	}

	gris.Close()
	restarted, _ := f.startGRIS(t, "res1", addr)
	f.clk.Advance(2 * time.Second)
	searchOK(t, g)
	if n := restarted.AcceptedConns(); n != 1 {
		t.Fatalf("restarted member accepted %d connections, want 1", n)
	}
	if open, _ := g.memberPoolFor(addr).Stats(); open != 1 {
		t.Fatalf("pool holds %d connections after the restart, want 1", open)
	}

	// Park a second idle connection, so two stale ones predate the next
	// restart, and restart without advancing the clock.
	pool := g.memberPoolFor(addr)
	ctx := context.Background()
	a, err := pool.Checkout(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Checkout(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pool.Checkin(a)
	pool.Checkin(b)
	restarted.Close()
	again, _ := f.startGRIS(t, "res1", addr)
	searchOK(t, g)
	if n := again.AcceptedConns(); n != 1 {
		t.Fatalf("member restarted under traffic accepted %d connections, want 1", n)
	}
	if open, idle := pool.Stats(); open != 1 || idle != 1 {
		t.Fatalf("pool holds %d open, %d idle after the unpinged restart; want 1, 1", open, idle)
	}
}

package mds_test

import (
	"context"
	"encoding/base64"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"infogram/internal/cache"
	"infogram/internal/gsi"
	"infogram/internal/mds"
	"infogram/internal/provider"
	"infogram/internal/session"
	"infogram/internal/wire"
)

// fabric is the shared security setup for MDS tests.
type fabric struct {
	ca    *gsi.CA
	trust *gsi.TrustStore
	svc   *gsi.Credential
	user  *gsi.Credential
}

func newFabric(t *testing.T) *fabric {
	t.Helper()
	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=CA", time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	svc, _ := ca.IssueIdentity("/O=Grid/CN=mds", time.Hour, now)
	user, _ := ca.IssueIdentity("/O=Grid/CN=alice", time.Hour, now)
	return &fabric{ca: ca, trust: gsi.NewTrustStore(ca.Certificate()), svc: svc, user: user}
}

func newRegistry(resource string) *provider.Registry {
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "Memory",
		Values: provider.Attributes{
			{Name: "total", Value: "1024"},
			{Name: "free", Value: "512"},
		},
	}, provider.RegisterOptions{TTL: time.Minute})
	reg.Register(&provider.StaticProvider{
		KeywordName: "CPU",
		Values: provider.Attributes{
			{Name: "count", Value: "8"},
			{Name: "model", Value: resource + "-cpu"},
		},
	}, provider.RegisterOptions{TTL: time.Minute})
	return reg
}

func startGRIS(t *testing.T, f *fabric, resource string) *mds.GRIS {
	t.Helper()
	g := mds.NewGRIS(mds.GRISConfig{
		ResourceName: resource,
		Registry:     newRegistry(resource),
		Credential:   f.svc,
		Trust:        f.trust,
	})
	if _, err := g.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

func TestGRISSearchAll(t *testing.T) {
	f := newFabric(t)
	g := startGRIS(t, f, "res1")
	cl, err := mds.Dial(g.Addr(), f.user, f.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	entries, err := cl.Search(mds.SearchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	if v, _ := entries[0].Get("Memory:total"); v != "1024" {
		t.Errorf("Memory:total = %q", v)
	}
	if v, _ := entries[1].Get("CPU:count"); v != "8" {
		t.Errorf("CPU:count = %q", v)
	}
}

func TestGRISSearchFiltered(t *testing.T) {
	f := newFabric(t)
	g := startGRIS(t, f, "res1")
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
	// Numeric filter over namespaced attribute.
	entries, err = cl.Search(mds.SearchRequest{Filter: "(Memory:total>=1000)"})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("numeric filter entries = %d", len(entries))
	}
	// Attribute projection.
	entries, err = cl.Search(mds.SearchRequest{Filter: "(kw=CPU)", Attrs: []string{"CPU:count"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || len(entries[0].Attrs) != 1 {
		t.Fatalf("projected entries = %+v", entries)
	}
	if _, ok := entries[0].Get("CPU:model"); ok {
		t.Error("projection leaked CPU:model")
	}
}

func TestGRISBadFilter(t *testing.T) {
	f := newFabric(t)
	g := startGRIS(t, f, "res1")
	cl, err := mds.Dial(g.Addr(), f.user, f.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Search(mds.SearchRequest{Filter: "(((broken"}); err == nil {
		t.Error("bad filter accepted")
	}
}

func TestGRISCaching(t *testing.T) {
	// MDS-2.0-style caching: repeated searches inside the TTL execute
	// providers once.
	f := newFabric(t)
	reg := provider.NewRegistry(nil)
	execs := 0
	reg.Register(provider.NewFuncProvider("Counter", func(ctx context.Context) (provider.Attributes, error) {
		execs++
		return provider.Attributes{{Name: "n", Value: "x"}}, nil
	}), provider.RegisterOptions{TTL: time.Hour})
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
	for i := 0; i < 5; i++ {
		if _, err := cl.Search(mds.SearchRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	if execs != 1 {
		t.Errorf("provider executed %d times, want 1", execs)
	}
}

func TestGRISAuthorization(t *testing.T) {
	f := newFabric(t)
	policy := gsi.NewPolicy(gsi.Deny)
	g := mds.NewGRIS(mds.GRISConfig{
		ResourceName: "res", Registry: newRegistry("res"),
		Credential: f.svc, Trust: f.trust, Policy: policy,
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
	if _, err := cl.Search(mds.SearchRequest{}); err == nil {
		t.Error("denied search succeeded")
	}
}

func TestGIISAggregation(t *testing.T) {
	f := newFabric(t)
	g1 := startGRIS(t, f, "res1")
	g2 := startGRIS(t, f, "res2")

	giis := mds.NewGIIS(mds.GIISConfig{
		OrgName: "testvo", Credential: f.svc, Trust: f.trust,
	})
	if _, err := giis.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer giis.Close()

	// Register over the wire.
	cl, err := mds.Dial(giis.Addr(), f.user, f.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.RegisterWith(g1.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := cl.RegisterWith(g2.Addr()); err != nil {
		t.Fatal(err)
	}
	if got := giis.Members(); len(got) != 2 {
		t.Fatalf("Members = %v", got)
	}

	entries, err := cl.Search(mds.SearchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 { // 2 keywords x 2 resources
		t.Fatalf("entries = %d", len(entries))
	}
	resources := map[string]bool{}
	for _, e := range entries {
		r, _ := e.Get("resource")
		resources[r] = true
	}
	if !resources["res1"] || !resources["res2"] {
		t.Errorf("resources = %v", resources)
	}

	// Filtered fan-out.
	entries, err = cl.Search(mds.SearchRequest{Filter: "(&(kw=CPU)(resource=res2))"})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("filtered entries = %d", len(entries))
	}
}

func TestGIISToleratesDeadMembers(t *testing.T) {
	f := newFabric(t)
	g1 := startGRIS(t, f, "res1")
	giis := mds.NewGIIS(mds.GIISConfig{OrgName: "vo", Credential: f.svc, Trust: f.trust})
	if _, err := giis.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer giis.Close()
	giis.Register(g1.Addr())
	giis.Register("127.0.0.1:1") // nothing listening

	entries, err := giis.Search(context.Background(), mds.SearchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	// The live member's records, plus a degraded status entry naming the
	// dead one.
	if len(entries) != 3 {
		t.Fatalf("entries = %d (live member's records + status entry expected)", len(entries))
	}
	status := entries[len(entries)-1]
	if oc, _ := status.Get("objectclass"); oc != "InfoGramStatus" {
		t.Errorf("last entry objectclass = %q, want degraded status entry", oc)
	}
	if missing, _ := status.Get("missing"); missing != "127.0.0.1:1" {
		t.Errorf("status entry missing = %q, want the dead member", missing)
	}
	for _, e := range entries[:2] {
		if oc, _ := e.Get("objectclass"); oc == "InfoGramStatus" {
			t.Errorf("live data entry carries the status objectclass: %s", e.DN)
		}
	}
}

func TestGIISRegistrationTTL(t *testing.T) {
	f := newFabric(t)
	giis := mds.NewGIIS(mds.GIISConfig{
		OrgName: "vo", Credential: f.svc, Trust: f.trust,
		RegistrationTTL: 10 * time.Millisecond,
	})
	if _, err := giis.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer giis.Close()
	giis.Register("127.0.0.1:9999")
	if len(giis.Members()) != 1 {
		t.Fatal("registration missing")
	}
	time.Sleep(30 * time.Millisecond)
	if got := giis.Members(); len(got) != 0 {
		t.Errorf("expired registration still present: %v", got)
	}
}

func TestGIISAggregateCache(t *testing.T) {
	f := newFabric(t)
	reg := provider.NewRegistry(nil)
	execs := 0
	reg.Register(provider.NewFuncProvider("K", func(ctx context.Context) (provider.Attributes, error) {
		execs++
		return provider.Attributes{{Name: "v", Value: "1"}}, nil
	}), provider.RegisterOptions{TTL: 0}) // provider itself never caches
	g := mds.NewGRIS(mds.GRISConfig{ResourceName: "r", Registry: reg, Credential: f.svc, Trust: f.trust})
	if _, err := g.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	giis := mds.NewGIIS(mds.GIISConfig{
		OrgName: "vo", Credential: f.svc, Trust: f.trust, CacheTTL: time.Hour,
	})
	if _, err := giis.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer giis.Close()
	giis.Register(g.Addr())

	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := giis.Search(ctx, mds.SearchRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	if execs != 1 {
		t.Errorf("provider executed %d times through cached GIIS, want 1", execs)
	}
	// A different query misses the cache.
	if _, err := giis.Search(ctx, mds.SearchRequest{Filter: "(kw=K)"}); err != nil {
		t.Fatal(err)
	}
	if execs != 2 {
		t.Errorf("execs = %d after distinct query, want 2", execs)
	}
}

func TestRegistrarSoftState(t *testing.T) {
	// MDS soft-state registration: a registrar keeps its GRIS alive in a
	// short-TTL GIIS; once stopped, the registration ages out.
	f := newFabric(t)
	g := startGRIS(t, f, "res1")
	giis := mds.NewGIIS(mds.GIISConfig{
		OrgName: "vo", Credential: f.svc, Trust: f.trust,
		RegistrationTTL: 120 * time.Millisecond,
	})
	if _, err := giis.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer giis.Close()

	reg := mds.NewRegistrar(giis.Addr(), g.Addr(), 40*time.Millisecond, f.svc, f.trust)
	if err := reg.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer reg.Stop()

	// Across several TTL windows the member stays present.
	for i := 0; i < 4; i++ {
		if got := giis.Members(); len(got) != 1 {
			t.Fatalf("iteration %d: members = %v", i, got)
		}
		time.Sleep(60 * time.Millisecond)
	}
	succ, _ := reg.Counts()
	if succ < 2 {
		t.Errorf("successes = %d, want re-registrations", succ)
	}
	// After stopping, the registration expires.
	reg.Stop()
	time.Sleep(200 * time.Millisecond)
	if got := giis.Members(); len(got) != 0 {
		t.Errorf("members after stop = %v", got)
	}
	reg.Stop() // idempotent
}

func TestRegistrarFailsFastOnDeadGIIS(t *testing.T) {
	f := newFabric(t)
	reg := mds.NewRegistrar("127.0.0.1:1", "127.0.0.1:2", time.Second, f.svc, f.trust)
	if err := reg.Start(); err == nil {
		t.Error("Start against dead GIIS succeeded")
		reg.Stop()
	}
	_, fails := reg.Counts()
	if fails != 1 {
		t.Errorf("failures = %d", fails)
	}
}

func TestTwoProtocolBaselineRequiresTwoCodecs(t *testing.T) {
	// Figure 2's structural claim: the MDS client cannot talk to GRAM and
	// vice versa; the two services genuinely speak different protocols.
	f := newFabric(t)
	g := startGRIS(t, f, "res1")
	cl, err := mds.Dial(g.Addr(), f.user, f.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Search works; the GRIS has no SUBMIT verb, so a GRAM-style request
	// is rejected at the protocol level.
	if _, err := cl.Search(mds.SearchRequest{}); err != nil {
		t.Fatal(err)
	}
	entries, err := cl.Search(mds.SearchRequest{Filter: "(kw=Memory)"})
	if err != nil || len(entries) != 1 {
		t.Fatalf("search: %v", err)
	}
	_ = cache.Cached // document that GRIS reads go through the cache layer
}

// TestGIISDegradedNotCached: a partial merge must not be pinned in the
// aggregate cache — once the failed member recovers, the next search
// within the same membership generation sees its records again.
func TestGIISDegradedNotCached(t *testing.T) {
	f := newFabric(t)
	g1 := startGRIS(t, f, "res1")
	g2 := mds.NewGRIS(mds.GRISConfig{
		ResourceName: "res2",
		Registry:     newRegistry("res2"),
		Credential:   f.svc,
		Trust:        f.trust,
	})
	if _, err := g2.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	g2addr := g2.Addr()

	giis := mds.NewGIIS(mds.GIISConfig{
		OrgName: "vo", Credential: f.svc, Trust: f.trust,
		CacheTTL:      time.Minute,
		MemberTimeout: 2 * time.Second,
	})
	if _, err := giis.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer giis.Close()
	giis.Register(g1.Addr())
	giis.Register(g2addr)

	g2.Close()
	entries, err := giis.Search(context.Background(), mds.SearchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if oc, _ := entries[len(entries)-1].Get("objectclass"); oc != "InfoGramStatus" {
		t.Fatalf("search against a dead member not degraded: %d entries", len(entries))
	}

	// Revive res2 on the same address; no Register() call, so the
	// membership generation — and with it the cache key — is unchanged.
	g2 = mds.NewGRIS(mds.GRISConfig{
		ResourceName: "res2",
		Registry:     newRegistry("res2"),
		Credential:   f.svc,
		Trust:        f.trust,
	})
	if _, err := g2.Listen(g2addr); err != nil {
		t.Skipf("cannot rebind %s: %v", g2addr, err)
	}
	defer g2.Close()

	entries, err = giis.Search(context.Background(), mds.SearchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("entries after recovery = %d, want 4 (a cached degraded body?)", len(entries))
	}
	for _, e := range entries {
		if oc, _ := e.Get("objectclass"); oc == "InfoGramStatus" {
			t.Errorf("recovered search still degraded: %s", e.DN)
		}
	}

	// The full merge IS cached: a repeat should hit.
	if _, err := giis.Search(context.Background(), mds.SearchRequest{}); err != nil {
		t.Fatal(err)
	}
}

// rawMember is a directory member that answers every SEARCH with body as
// its RESULT, whatever the body holds, and counts the searches it served.
func rawMember(t *testing.T, f *fabric, body string) (string, *atomic.Int64) {
	t.Helper()
	var searches atomic.Int64
	srv := session.NewServer(session.Config{
		Credential: f.svc,
		Trust:      f.trust,
		ErrorVerb:  mds.VerbMDSError,
		Handler: func(context.Context, *session.Peer, wire.Frame) wire.Frame {
			searches.Add(1)
			return wire.Frame{Verb: mds.VerbResult, Payload: []byte(body)}
		},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, &searches
}

// TestGIISMalformedMemberDegrades: a member whose RESULT is not LDIF is a
// member failure. The reply keeps the good member's entries, ends with a
// status entry naming the bad member, and is not cached: the next search
// asks the bad member again.
func TestGIISMalformedMemberDegrades(t *testing.T) {
	f := newFabric(t)
	good := startGRIS(t, f, "res1")
	bad, searches := rawMember(t, f, "dn: kw=Memory, resource=bad, o=grid\nnot an attribute line\n")
	giis := mds.NewGIIS(mds.GIISConfig{OrgName: "vo", Credential: f.svc, Trust: f.trust, CacheTTL: time.Minute})
	defer giis.Close()
	giis.Register(good.Addr())
	giis.Register(bad)

	for round := 1; round <= 2; round++ {
		entries, err := giis.Search(context.Background(), mds.SearchRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 3 {
			t.Fatalf("round %d: %d entries, want res1's 2 plus the status entry", round, len(entries))
		}
		for _, e := range entries[:2] {
			if res, _ := e.Get("resource"); res != "res1" {
				t.Errorf("round %d: entry %s from %q, want res1", round, e.DN, res)
			}
		}
		status := entries[2]
		if oc, _ := status.Get("objectclass"); oc != "InfoGramStatus" {
			t.Fatalf("round %d: last entry %s is not the degraded status", round, status.DN)
		}
		if missing := status.All("missing"); len(missing) != 1 || missing[0] != bad {
			t.Errorf("round %d: missing = %v, want [%s]", round, missing, bad)
		}
		if msg, _ := status.Get("error:" + bad); !strings.Contains(msg, "malformed line") {
			t.Errorf("round %d: error for %s = %q", round, bad, msg)
		}
		if n := searches.Load(); n != int64(round) {
			t.Fatalf("round %d: the bad member served %d searches: a degraded merge was cached", round, n)
		}
	}
}

// TestGIISSortsByDecodedDN: the merge orders entries by their decoded DN,
// whether a member wrote it plain, folded, or base64, and passes each
// member's bytes through as written.
func TestGIISSortsByDecodedDN(t *testing.T) {
	f := newFabric(t)
	b64 := "dn:: " + base64.StdEncoding.EncodeToString([]byte("kw=b, o=grid")) + "\nv: b\n"
	folded := "dn: kw=c,\n  o=grid\nv: c\n"
	commented := "# from a\ndn: kw=a, o=grid\nv: a\n"
	giis := mds.NewGIIS(mds.GIISConfig{OrgName: "vo", Credential: f.svc, Trust: f.trust})
	defer giis.Close()
	for _, body := range []string{folded, b64, commented} {
		addr, _ := rawMember(t, f, body)
		giis.Register(addr)
	}
	body, err := giis.SearchLDIF(context.Background(), mds.SearchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if want := "dn: kw=a, o=grid\nv: a\n\n" + b64 + "\n" + folded; string(body) != want {
		t.Fatalf("merged body\n%q\nwant\n%q", body, want)
	}
	entries, err := giis.Search(context.Background(), mds.SearchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		v, _ := e.Get("v")
		got = append(got, e.DN+"="+v)
	}
	if want := []string{"kw=a, o=grid=a", "kw=b, o=grid=b", "kw=c, o=grid=c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("entries = %q, want %q", got, want)
	}
}

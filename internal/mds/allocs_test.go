package mds

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"infogram/internal/gsi"
	"infogram/internal/ldif"
	"infogram/internal/provider"
	"infogram/internal/wire"
)

// Allocation budgets of a GIIS search over four GRIS, in process over
// loopback TCP: the client's call, the GIIS and all four members. Each
// is the count measured when it was set plus a small fixed slack; a
// change that lowers a count lowers its budget in the same commit, and
// raising one is a deliberate, recorded decision. The layers are pinned
// apart, so a regression names the layer it is in:
//
//   - wire: one Call and its server's read and write, per direction one
//     payload and nothing else;
//   - codec: decoding one canonical SEARCH payload whose filter carries
//     an escape (the one copy the decoded filter needs);
//   - leg: one member query as the fan-out makes it, on a pooled
//     connection, with the GRIS answering from its cache;
//   - split and splice: locating the entries of four member replies and
//     merging them;
//   - fan-out: what the search costs beyond those parts.
const (
	budgetGIISSearch  = 35 // measured 31.5: one search through the GIIS over four cached GRIS
	budgetWireCall    = 3  // measured 2.0: a Call with an I/O timeout and no cancellable context
	budgetSearchCodec = 1  // measured 1.0: one canonical SEARCH payload decoded
	budgetMemberLeg   = 4  // measured 3.0: one member query on a pooled connection
	budgetSplice      = 6  // measured 6.0: four member replies split and spliced
	budgetFanout      = 13 // measured 10.5: the search less its legs, codec, splice and the client's call
)

// budgetGRISMiss pins a GRIS search on its miss path, in process: the
// filter is parsed, its keywords resolved and collected from fresh
// provider caches, every entry tested and the answer rendered. An entry
// copied to the heap to be tested costs one allocation more per entry,
// griskeywords of them.
const budgetGRISMiss = 53 // measured 50.0: one filtered search over griskeywords entries, response cache off

const griskeywords = 16

// allocsPer counts the allocations of op the way core's pins do: after a
// warm-up past every first-use allocation, on one P, without rounding
// down, and counting every goroutine — servers included.
func allocsPer(op func()) float64 {
	for i := 0; i < 200; i++ {
		op()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// giisRig is a GIIS, its cache off, over four GRIS with their caches on,
// and a client of the GIIS: the giis_search benchmark's shape.
type giisRig struct {
	giis    *GIIS
	members []string
	client  *Client
	trust   *gsi.TrustStore
	user    *gsi.Credential
}

// giisFilters are the searches the rig asks in turn: each selects one
// keyword's entries, and all but the first carry the `&` that JSON
// escapes.
var giisFilters = []string{
	"(kw=K0)",
	"(&(kw=K1)(objectclass=InfoGramProvider))",
	"(&(kw=K2)(resource=gris*))",
	"(&(kw=K3)(K3:a1=*))",
}

func newGIISRig(t *testing.T) *giisRig {
	t.Helper()
	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=CA", time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ca.IssueIdentity("/O=Grid/CN=mds", time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	user, err := ca.IssueIdentity("/O=Grid/CN=alice", time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	giis := NewGIIS(GIISConfig{OrgName: "vo", Credential: svc, Trust: trust})
	if _, err := giis.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { giis.Close() })
	r := &giisRig{giis: giis, trust: trust, user: user}
	for m := 0; m < 4; m++ {
		reg := provider.NewRegistry(nil)
		for k := 0; k < 4; k++ {
			var attrs provider.Attributes
			for i := 0; i < 4; i++ {
				attrs = append(attrs, provider.Attr{Name: fmt.Sprintf("a%d", i), Value: fmt.Sprintf("v%d.%d.%d", m, k, i)})
			}
			reg.Register(&provider.StaticProvider{KeywordName: fmt.Sprintf("K%d", k), Values: attrs},
				provider.RegisterOptions{TTL: time.Hour})
		}
		gris := NewGRIS(GRISConfig{ResourceName: fmt.Sprintf("gris%d", m), Registry: reg,
			Credential: svc, Trust: trust, CacheTTL: time.Hour})
		addr, err := gris.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { gris.Close() })
		giis.Register(addr)
		r.members = append(r.members, addr)
	}
	if r.client, err = Dial(giis.Addr(), user, trust); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.client.Close() })
	return r
}

// search asks the i-th of giisFilters through the GIIS.
func (r *giisRig) search(t *testing.T, i int) []byte {
	body, err := r.client.SearchLDIFContext(context.Background(), SearchRequest{Filter: giisFilters[i%len(giisFilters)]})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestGIISSearchAllocations(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("allocation pins need the race detector off and a full run")
	}
	r := newGIISRig(t)
	for i := range giisFilters {
		if body := r.search(t, i); len(body) == 0 || containsDegraded(body) {
			t.Fatalf("search %q: degraded or empty reply:\n%s", giisFilters[i], body)
		}
	}
	ctx := context.Background()

	// End to end.
	n := 0
	search := allocsPer(func() { r.search(t, n); n++ })

	// Wire: a Call against a server that answers every frame with one
	// fixed frame, on a connection carrying an I/O timeout.
	reply := wire.Frame{Verb: VerbResult, Payload: []byte("dn: o=grid\n")}
	echo := wire.NewServer(wire.HandlerFunc(func(c *wire.Conn) {
		for {
			if _, err := c.Read(); err != nil {
				return
			}
			if err := c.Write(reply); err != nil {
				return
			}
		}
	}))
	echoAddr, err := echo.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	wc, err := wire.DialTimeout(echoAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	req := wire.Frame{Verb: VerbSearch, Payload: appendSearchRequest(nil, &SearchRequest{Filter: giisFilters[1]})}
	call := allocsPer(func() {
		if _, err := wc.CallContext(ctx, req); err != nil {
			t.Fatal(err)
		}
	})

	// Codec, and below split and splice: one goroutine's work, counted
	// by testing.AllocsPerRun in whole allocations, so a stray one of a
	// server goroutine does not land in it.
	codec := testing.AllocsPerRun(100, func() {
		if _, err := decodeSearchRequest(req.Payload); err != nil {
			t.Fatal(err)
		}
	})

	// One member leg, on a lease from the GIIS's own pool.
	leg := allocsPer(func() {
		if _, err := r.giis.queryMember(ctx, r.members[0], req.Payload); err != nil {
			t.Fatal(err)
		}
	})

	// Split and splice of four member replies.
	bodies := make([][]byte, len(r.members))
	for i, m := range r.members {
		if bodies[i], err = r.giis.queryMember(ctx, m, req.Payload); err != nil {
			t.Fatal(err)
		}
	}
	results := make([]memberResult, len(r.members))
	merge := testing.AllocsPerRun(100, func() {
		for i, m := range r.members {
			results[i] = splitReply(m, bodies[i], nil)
		}
		if _, err := splice("vo", results); err != nil {
			t.Fatal(err)
		}
	})

	fanout := search - call - codec - 4*leg - merge
	t.Logf("GIIS search: %.1f allocations (wire call %.1f, codec %.1f, 4 legs × %.1f, split+splice %.1f, fan-out %.1f)",
		search, call, codec, leg, merge, fanout)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"search", search, budgetGIISSearch},
		{"wire call", call, budgetWireCall},
		{"codec", codec, budgetSearchCodec},
		{"member leg", leg, budgetMemberLeg},
		{"split and splice", merge, budgetSplice},
		{"fan-out", fanout, budgetFanout},
	} {
		if c.got > c.want {
			t.Errorf("%s: %.1f allocations, budget %.0f", c.name, c.got, c.want)
		}
	}
}

func containsDegraded(body []byte) bool {
	blocks, err := ldif.Split(body, nil)
	if err != nil {
		return true
	}
	for _, b := range blocks {
		if len(b.DN) >= 15 && b.DN[:15] == "status=degraded" {
			return true
		}
	}
	return false
}

func TestGRISMissAllocations(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("allocation pins need the race detector off and a full run")
	}
	reg := provider.NewRegistry(nil)
	for k := 0; k < griskeywords; k++ {
		var attrs provider.Attributes
		for i := 0; i < 4; i++ {
			attrs = append(attrs, provider.Attr{Name: fmt.Sprintf("a%d", i), Value: fmt.Sprintf("v%d.%d", k, i)})
		}
		reg.Register(&provider.StaticProvider{KeywordName: fmt.Sprintf("K%02d", k), Values: attrs},
			provider.RegisterOptions{TTL: time.Hour})
	}
	// No response cache: every search takes the miss path.
	g := NewGRIS(GRISConfig{ResourceName: "gris", Registry: reg})
	req := SearchRequest{Filter: "(&(objectclass=InfoGramProvider)(resource=gris))"}
	ctx := context.Background()
	search := func() []byte {
		body, err := g.SearchLDIF(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	if entries, err := ldif.Split(search(), nil); err != nil || len(entries) != griskeywords {
		t.Fatalf("search matched %d entries (%v), want %d", len(entries), err, griskeywords)
	}
	got := allocsPer(func() { search() })
	t.Logf("GRIS miss with a filter: %.1f allocations", got)
	if got > budgetGRISMiss {
		t.Errorf("GRIS miss with a filter: %.1f allocations, budget %d", got, budgetGRISMiss)
	}
}

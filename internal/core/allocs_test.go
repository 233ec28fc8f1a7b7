package core

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/job"
	"infogram/internal/journal"
	"infogram/internal/provider"
	"infogram/internal/quality"
	"infogram/internal/scheduler"
	"infogram/internal/session"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
)

// Allocation budgets per request shape, in process over net.Pipe: the
// client, the session on both ends, the dispatcher and whatever the shape
// reaches below it. Each budget is the count measured when it was set
// plus a small fixed slack; a change that lowers a count lowers its
// budget in the same commit, and raising one is a deliberate, recorded
// decision. Each shape is also run with tracing off, with every trace
// kept and with every healthy trace dropped: the difference is what
// tracing costs per request, and it is zero.
const (
	budgetHotInfo     = 34  // measured 31.1: one cached info query
	budgetSubmitCycle = 55  // measured 51.0: SUBMIT, the job to DONE, one STATUS
	budgetColdFilter  = 138 // measured 134.1: an 8-keyword response-cache miss with a filter
	budgetColdDegrade = 417 // measured 413.1: an 8-keyword miss, no filter, over keywords with exponential(30s)
)

// pipeRig is a journaled service and a client joined by net.Pipe.
type pipeRig struct {
	svc  *Service
	cl   *Client
	cold int // the next of coldQueries to ask
}

// coldKeywords providers of attrGroups groups of four attributes each
// back the cold-miss shape, whose queries never repeat within a rig: K00…
// without a degradation function, E00… with exponential(30s).
const (
	coldKeywords = 48
	attrGroups   = 8
)

var (
	coldQueries     = coldQueryList("K", true)
	degradedQueries = coldQueryList("E", false)
)

// coldQueryList returns 1000 8-keyword queries over the keywords named
// prefix00…, each set asked once; filtered ones carry a filter keeping one
// of the attrGroups groups, which drops the quality attributes.
func coldQueryList(prefix string, filtered bool) []string {
	rng := rand.New(rand.NewSource(1))
	seen := make(map[string]bool)
	var out []string
	for len(out) < 1000 {
		var kws []string
		for len(kws) < 8 {
			if kw := fmt.Sprintf("%s%02d", prefix, rng.Intn(coldKeywords)); !slices.Contains(kws, kw) {
				kws = append(kws, kw)
			}
		}
		set := slices.Sorted(slices.Values(kws))
		if key := strings.Join(set, " "); !seen[key] {
			seen[key] = true
			q := "&(info=" + strings.Join(kws, ")(info=") + ")"
			if filtered {
				q += `(filter="*:g` + fmt.Sprint(len(out)%attrGroups) + `x*")`
			}
			out = append(out, q)
		}
	}
	return out
}

func newPipeRig(t *testing.T, trace string) *pipeRig {
	t.Helper()
	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=Test CA", time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	svcCred, err := ca.IssueIdentity("/O=Grid/CN=service", time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	user, err := ca.IssueIdentity("/O=Grid/CN=alice", time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	gm := gsi.NewGridmap()
	gm.Add("/O=Grid/CN=alice", "alice")
	jnl, _, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{KeywordName: "Memory",
		Values: provider.Attributes{{Name: "total", Value: "1024"}, {Name: "free", Value: "512"}}},
		provider.RegisterOptions{TTL: time.Hour})
	for k := 0; k < coldKeywords; k++ {
		var attrs provider.Attributes
		for g := 0; g < attrGroups; g++ {
			for i := 0; i < 4; i++ {
				attrs = append(attrs, provider.Attr{Name: fmt.Sprintf("g%dx%d", g, i), Value: fmt.Sprintf("v%d.%d.%d", k, g, i)})
			}
		}
		reg.Register(&provider.StaticProvider{KeywordName: fmt.Sprintf("K%02d", k), Values: attrs},
			provider.RegisterOptions{TTL: time.Hour})
		reg.Register(&provider.StaticProvider{KeywordName: fmt.Sprintf("E%02d", k), Values: attrs},
			provider.RegisterOptions{TTL: time.Hour, Degrade: quality.Exponential{HalfLife: 30 * time.Second}})
	}
	fn := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
	fn.RegisterFunc("noop", func(context.Context, *scheduler.Sandbox, []string, string) (string, error) { return "", nil })
	cfg := Config{
		ResourceName: "pipe.resource", Credential: svcCred, Trust: trust, Gridmap: gm,
		Registry: reg, Backends: gram.Backends{Func: fn}, Journal: jnl, CacheTTL: time.Hour,
		Telemetry: telemetry.NewRegistry(),
	}
	switch trace {
	case "off":
		cfg.DisableTracing = true
	case "keep":
		cfg.TraceOptions = telemetry.TracerOptions{SampleRate: 1, Capacity: 64}
	case "drop":
		cfg.TraceOptions = telemetry.TracerOptions{SampleRate: -1, Capacity: 64}
	}
	svc := NewService(cfg)
	if _, err := svc.Listen("127.0.0.1:0"); err != nil { // builds the job manager
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })

	a, b := net.Pipe()
	go svc.server.ServeConn(wire.NewConn(a))
	conn := wire.NewConn(b)
	ctx := context.Background()
	peer, err := gsi.ClientHandshakeContext(ctx, conn, user, trust, now)
	if err != nil {
		t.Fatal(err)
	}
	granted, err := wire.Negotiate(ctx, conn, wire.CapTrace|wire.CapMux)
	if err != nil {
		t.Fatal(err)
	}
	sess := &session.Client{Conn: conn, Peer: peer, Traced: granted&wire.CapTrace != 0, Mux: wire.NewMuxConn(conn)}
	cl := NewClient("pipe", user, trust, Options{})
	cl.sess, cl.peer = sess, peer
	t.Cleanup(func() { cl.Close() })
	return &pipeRig{svc: svc, cl: cl}
}

func (r *pipeRig) hotInfo(t *testing.T) {
	if _, err := r.cl.QueryRaw("&(info=Memory)"); err != nil {
		t.Fatal(err)
	}
}

// coldMiss asks an 8-keyword query with a filter that the rig has not
// asked before: a response-cache miss, so the keywords' reports are
// collected from the provider cache, filtered, rendered and stored.
func (r *pipeRig) coldMiss(t *testing.T) { r.miss(t, coldQueries) }

// degradedMiss is coldMiss over keywords with a degradation function and
// without a filter: every entry of the answer carries all its attributes
// and the function's name.
func (r *pipeRig) degradedMiss(t *testing.T) {
	if res := r.miss(t, degradedQueries); !strings.Contains(res.Raw, "quality:function: exponential(30s)") {
		t.Fatalf("answer carries no degradation function:\n%s", res.Raw)
	}
}

func (r *pipeRig) miss(t *testing.T, queries []string) InfoResult {
	src := queries[r.cold%len(queries)]
	r.cold++
	res, err := r.cl.QueryRaw(src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// submitCycle submits a no-op job, waits for the table to show it DONE,
// and reads the DONE back with one STATUS: always two requests, so the
// count does not depend on how many polls the job's timing would take.
func (r *pipeRig) submitCycle(t *testing.T) {
	contact, err := r.cl.Submit("&(executable=noop)(jobtype=func)")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if rec, err := r.svc.Table().Get(contact); err == nil && rec.State == job.Done {
			break
		}
		runtime.Gosched()
	}
	if st, err := r.cl.Status(contact); err != nil || st.State != job.Done {
		t.Fatalf("STATUS = %+v, %v; want DONE", st, err)
	}
}

// allocsPerRequest warms the rig up past every first-use allocation —
// pooled scopes, the trace store's slots, the cache entry — then counts
// like testing.AllocsPerRun, on one P, without rounding down.
func allocsPerRequest(t *testing.T, trace string, shape func(*pipeRig, *testing.T)) float64 {
	r := newPipeRig(t, trace)
	for i := 0; i < 300; i++ {
		shape(r, t)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		shape(r, t)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

func TestRequestShapeAllocations(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("allocation pins need the race detector off and a full run")
	}
	for _, c := range []struct {
		name   string
		shape  func(*pipeRig, *testing.T)
		budget float64
	}{
		{"hot info hit", (*pipeRig).hotInfo, budgetHotInfo},
		{"submit to done", (*pipeRig).submitCycle, budgetSubmitCycle},
		{"cold miss with filter", (*pipeRig).coldMiss, budgetColdFilter},
		{"cold miss with degradation functions", (*pipeRig).degradedMiss, budgetColdDegrade},
	} {
		t.Run(c.name, func(t *testing.T) {
			off := allocsPerRequest(t, "off", c.shape)
			if off > c.budget {
				t.Errorf("untraced: %.1f allocations per request, budget %.0f", off, c.budget)
			}
			for _, trace := range []string{"keep", "drop"} {
				got := allocsPerRequest(t, trace, c.shape)
				if got > c.budget {
					t.Errorf("traces %s: %.1f allocations per request, budget %.0f", trace, got, c.budget)
				}
				// The telemetry sub-budget: tracing adds nothing. Half an
				// allocation of slack absorbs a straggling goroutine exit.
				if got-off > 0.5 {
					t.Errorf("traces %s: tracing costs %.1f allocations per request (%.1f traced, %.1f untraced), budget 0",
						trace, got-off, got, off)
				}
				t.Logf("%s: %.1f allocations per request (untraced %.1f)", trace, got, off)
			}
		})
	}
}

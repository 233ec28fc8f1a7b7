package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"infogram/internal/cache"
	"infogram/internal/clock"
	"infogram/internal/core"
	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/job"
	"infogram/internal/journal"
	"infogram/internal/ldif"
	"infogram/internal/logging"
	"infogram/internal/mds"
	"infogram/internal/provider"
	"infogram/internal/quality"
	"infogram/internal/scheduler"
	"infogram/internal/xrsl"
)

// countingProvider returns an incrementing value and counts executions.
func countingProvider(keyword string) (*provider.FuncProvider, *atomic.Int64) {
	var n atomic.Int64
	p := provider.NewFuncProvider(keyword, func(ctx context.Context) (provider.Attributes, error) {
		return provider.Attributes{{Name: "n", Value: strconv.FormatInt(n.Add(1), 10)}}, nil
	})
	return p, &n
}

func TestResponseModes(t *testing.T) {
	// E6: the three response-tag semantics over the wire.
	reg := provider.NewRegistry(nil)
	p, execs := countingProvider("Counter")
	reg.Register(p, provider.RegisterOptions{TTL: time.Hour})
	g := newTestGrid(t, reg)
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	read := func(response string) string {
		t.Helper()
		res, err := cl.QueryRaw("&(info=Counter)(response=" + response + ")")
		if err != nil {
			t.Fatalf("response=%s: %v", response, err)
		}
		v, _ := res.Entries[0].Get("Counter:n")
		return v
	}

	if v := read("cached"); v != "1" {
		t.Errorf("first cached read = %q", v)
	}
	if v := read("cached"); v != "1" {
		t.Errorf("second cached read = %q (TTL should hold)", v)
	}
	if v := read("immediate"); v != "2" {
		t.Errorf("immediate read = %q (must re-execute)", v)
	}
	// immediate updated the cache.
	if v := read("last"); v != "2" {
		t.Errorf("last read = %q", v)
	}
	if v := read("cached"); v != "2" {
		t.Errorf("cached after immediate = %q", v)
	}
	if got := execs.Load(); got != 2 {
		t.Errorf("provider executions = %d, want 2", got)
	}
}

func TestQualityThresholdRefresh(t *testing.T) {
	// E7: the quality tag regenerates information whose degradation score
	// is below the threshold, even inside the TTL.
	reg := provider.NewRegistry(nil)
	p, execs := countingProvider("Sensor")
	reg.Register(p, provider.RegisterOptions{
		TTL:     time.Hour,
		Degrade: quality.Linear{Horizon: 200 * time.Millisecond},
	})
	g := newTestGrid(t, reg)
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	res, err := cl.QueryRaw("&(info=Sensor)")
	if err != nil {
		t.Fatal(err)
	}
	if qv, _ := res.Entries[0].Get("quality:score"); qv == "" {
		t.Error("no quality:score attribute")
	}
	if fn, _ := res.Entries[0].Get("quality:function"); !strings.HasPrefix(fn, "linear") {
		t.Errorf("quality:function = %q", fn)
	}
	// Let quality decay below 50, then demand >= 90: a refresh happens.
	time.Sleep(120 * time.Millisecond)
	res, err = cl.QueryRaw("&(info=Sensor)(quality=90)")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Entries[0].Get("Sensor:n"); v != "2" {
		t.Errorf("value after threshold refresh = %q", v)
	}
	if execs.Load() != 2 {
		t.Errorf("execs = %d", execs.Load())
	}
	// A low threshold is satisfied by the (fresh) cache.
	if _, err := cl.QueryRaw("&(info=Sensor)(quality=10)"); err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 2 {
		t.Errorf("low threshold forced refresh: execs = %d", execs.Load())
	}
}

func TestSelfCorrectingDriftExposed(t *testing.T) {
	// §5.2's data-assimilation analogy end to end: a drifting value with
	// a self-correcting degradation function reports its observed drift
	// statistics in query results.
	reg := provider.NewRegistry(nil)
	sc := quality.NewSelfCorrecting(quality.Linear{Horizon: time.Second})
	var v atomic.Int64
	p := provider.NewFuncProvider("Drifty", func(ctx context.Context) (provider.Attributes, error) {
		return provider.Attributes{{Name: "v", Value: strconv.FormatInt(v.Add(50), 10)}}, nil
	})
	reg.Register(p, provider.RegisterOptions{
		TTL:     time.Nanosecond, // refresh every query so drift is observed
		Degrade: sc,
		Drift: func(old, new any) float64 {
			oa, _ := old.(provider.Attributes).Get("v")
			na, _ := new.(provider.Attributes).Get("v")
			of, _ := strconv.ParseFloat(oa, 64)
			nf, _ := strconv.ParseFloat(na, 64)
			if of == 0 {
				return 0
			}
			d := (nf - of) / of
			if d < 0 {
				d = -d
			}
			return d
		},
	})
	g := newTestGrid(t, reg)
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var res core.InfoResult
	for i := 0; i < 5; i++ {
		time.Sleep(5 * time.Millisecond)
		res, err = cl.QueryRaw("&(info=Drifty)")
		if err != nil {
			t.Fatal(err)
		}
	}
	if fn, _ := res.Entries[0].Get("quality:function"); !strings.HasPrefix(fn, "selfcorrecting") {
		t.Errorf("quality:function = %q", fn)
	}
	if n, ok := res.Entries[0].Get("quality:driftObservations"); !ok || n == "0" {
		t.Errorf("driftObservations = %q %v", n, ok)
	}
	if _, ok := res.Entries[0].Get("quality:driftSigma"); !ok {
		t.Error("no quality:driftSigma")
	}
	if sc.Observations() == 0 {
		t.Error("no drift fed back")
	}
}

func TestPerformanceTagAccuracy(t *testing.T) {
	// E8: the performance tag reports mean and stddev of retrieval time.
	reg := provider.NewRegistry(nil)
	p := provider.NewFuncProvider("Slow", func(ctx context.Context) (provider.Attributes, error) {
		time.Sleep(20 * time.Millisecond)
		return provider.Attributes{{Name: "v", Value: "x"}}, nil
	})
	reg.Register(p, provider.RegisterOptions{TTL: 0})
	g := newTestGrid(t, reg)
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var res core.InfoResult
	for i := 0; i < 4; i++ {
		res, err = cl.QueryRaw("&(info=Slow)(performance=true)")
		if err != nil {
			t.Fatal(err)
		}
	}
	e := res.Entries[0]
	meanStr, ok := e.Get("performance:mean")
	if !ok {
		t.Fatal("no performance:mean")
	}
	mean, err := strconv.ParseFloat(meanStr, 64)
	if err != nil {
		t.Fatal(err)
	}
	if mean < 0.015 || mean > 0.5 {
		t.Errorf("mean = %v s, expected ~0.02", mean)
	}
	if _, ok := e.Get("performance:stddev"); !ok {
		t.Error("no performance:stddev")
	}
	if n, _ := e.Get("performance:samples"); n != "4" {
		t.Errorf("samples = %q", n)
	}
	// Without the tag, no performance attributes are attached.
	res, err = cl.QueryRaw("&(info=Slow)")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Entries[0].Get("performance:mean"); ok {
		t.Error("performance attributes leaked without the tag")
	}
}

// The performance tag's numbers are exact: a provider that takes 10, 20
// and 30 ms on a fake clock reports mean 20 ms and sample σ 10 ms, on the
// query and on its schema entry alike.
func TestPerformanceTagExactOnFakeClock(t *testing.T) {
	clk := clock.NewFake(time.Now())
	reg := provider.NewRegistry(clk)
	var calls atomic.Int64
	reg.Register(provider.NewFuncProvider("Timed", func(ctx context.Context) (provider.Attributes, error) {
		clk.Advance(time.Duration(calls.Add(1)) * 10 * time.Millisecond)
		return provider.Attributes{{Name: "v", Value: "x"}}, nil
	}), provider.RegisterOptions{TTL: 0})
	g := newTestGrid(t, reg)
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var res core.InfoResult
	for i := 0; i < 3; i++ {
		if res, err = cl.QueryRaw("&(info=Timed)(performance=true)"); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]string{"performance:mean": "0.020000", "performance:stddev": "0.010000", "performance:samples": "3"}
	for name, v := range want {
		if got, _ := res.Entries[0].Get(name); got != v {
			t.Errorf("%s = %q, want %q", name, got, v)
		}
	}
	schema, err := cl.Schema()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"performance:mean", "performance:stddev"} {
		if got, _ := schema[0].Get(name); got != want[name] {
			t.Errorf("schema %s = %q, want %q", name, got, want[name])
		}
	}
	if p := reg.Schema()[0].Performance; p.Mean() != 20*time.Millisecond || p.StdDev() != 10*time.Millisecond {
		t.Errorf("KeywordSchema.Performance mean, σ = %v, %v; want 20ms, 10ms", p.Mean(), p.StdDev())
	}
}

func TestSchemaReflection(t *testing.T) {
	// E9: (info=schema) returns the hierarchical schema with attribute
	// properties (§6.4).
	reg := provider.NewRegistry(nil)
	fp := provider.NewFuncProvider("Load", func(ctx context.Context) (provider.Attributes, error) {
		return provider.Attributes{{Name: "load1", Value: "0.5"}}, nil
	})
	fp.Schemas = []provider.AttrSchema{{Name: "load1", Type: "float", Doc: "1-minute load"}}
	reg.Register(fp, provider.RegisterOptions{
		TTL:     500 * time.Millisecond,
		Degrade: quality.Exponential{HalfLife: time.Second},
	})
	g := newTestGrid(t, reg)
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	entries, err := cl.Schema()
	if err != nil {
		t.Fatal(err)
	}
	// Load plus the built-in selfmetrics and selftrace providers.
	if len(entries) != 3 {
		t.Fatalf("schema entries = %d", len(entries))
	}
	e := entries[0]
	for _, cand := range entries {
		if kw, _ := cand.Get("keyword"); kw == "Load" {
			e = cand
			break
		}
	}
	checks := map[string]string{
		"keyword":         "Load",
		"ttl":             "500",
		"degradation":     "exponential(1s)",
		"attribute:load1": "float: 1-minute load",
	}
	for name, want := range checks {
		if v, _ := e.Get(name); v != want {
			t.Errorf("%s = %q, want %q", name, v, want)
		}
	}
	// Schema in XML format too.
	res, err := cl.QueryRaw("&(info=schema)(format=xml)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Format != xrsl.FormatXML || len(res.Entries) != 3 {
		t.Errorf("xml schema = %+v", res.Format)
	}
}

func TestFormatNegotiation(t *testing.T) {
	// E10: the same query returns identical data as LDIF and XML.
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "Memory",
		Values:      provider.Attributes{{Name: "total", Value: "1024"}},
	}, provider.RegisterOptions{TTL: time.Hour})
	g := newTestGrid(t, reg)
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ldifRes, err := cl.QueryRaw("&(info=Memory)")
	if err != nil {
		t.Fatal(err)
	}
	xmlRes, err := cl.QueryRaw("&(info=Memory)(format=xml)")
	if err != nil {
		t.Fatal(err)
	}
	if ldifRes.Format != xrsl.FormatLDIF || xmlRes.Format != xrsl.FormatXML {
		t.Errorf("formats = %v, %v", ldifRes.Format, xmlRes.Format)
	}
	if !strings.HasPrefix(xmlRes.Raw, "<?xml") {
		t.Errorf("xml raw = %q...", xmlRes.Raw[:40])
	}
	// Same decoded values regardless of encoding. LDIF serves cached;
	// ensure attribute equality modulo quality:age differences by
	// comparing the Memory attributes only.
	getMem := func(entries []ldif.Entry) string {
		v, _ := entries[0].Get("Memory:total")
		return v
	}
	if getMem(ldifRes.Entries) != getMem(xmlRes.Entries) {
		t.Error("LDIF and XML values differ")
	}
}

func TestDSMLFormat(t *testing.T) {
	// The paper's "straightforward to support other formats such as
	// DSML": (format=dsml) returns a DSMLv1 document over the wire.
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "Memory",
		Values:      provider.Attributes{{Name: "total", Value: "1024"}},
	}, provider.RegisterOptions{TTL: time.Hour})
	g := newTestGrid(t, reg)
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	res, err := cl.QueryRaw("&(info=Memory)(format=dsml)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Format != xrsl.FormatDSML {
		t.Errorf("Format = %v", res.Format)
	}
	if !strings.Contains(res.Raw, "dsml.org/DSML") {
		t.Errorf("raw = %q", res.Raw[:80])
	}
	if v, _ := res.Entries[0].Get("Memory:total"); v != "1024" {
		t.Errorf("Memory:total = %q", v)
	}
	if v, _ := res.Entries[0].Get("objectclass"); v != provider.ObjectClass {
		t.Errorf("objectclass = %q", v)
	}
}

func TestFilterTag(t *testing.T) {
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "Memory",
		Values: provider.Attributes{
			{Name: "total", Value: "1024"},
			{Name: "free", Value: "512"},
		},
	}, provider.RegisterOptions{TTL: time.Hour})
	reg.Register(&provider.StaticProvider{
		KeywordName: "CPU",
		Values:      provider.Attributes{{Name: "count", Value: "8"}},
	}, provider.RegisterOptions{TTL: time.Hour})
	g := newTestGrid(t, reg)
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	res, err := cl.QueryRaw(`&(info=all)(filter="Memory:*")`)
	if err != nil {
		t.Fatal(err)
	}
	// Only the Memory entry survives (CPU has no matching attribute).
	if len(res.Entries) != 1 {
		t.Fatalf("entries = %d", len(res.Entries))
	}
	if _, ok := res.Entries[0].Get("Memory:total"); !ok {
		t.Error("Memory:total filtered out")
	}
	if _, ok := res.Entries[0].Get("quality:score"); ok {
		t.Error("quality:score not filtered out")
	}
	// Exact-name filter.
	res, err = cl.QueryRaw(`&(info=all)(filter="Memory:free")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 || len(res.Entries[0].Attrs) != 4 {
		// objectclass, kw, resource + Memory:free
		t.Errorf("entries = %+v", res.Entries)
	}
}

func TestUnknownKeywordFailsWholeQuery(t *testing.T) {
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{KeywordName: "A"}, provider.RegisterOptions{TTL: time.Hour})
	g := newTestGrid(t, reg)
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.QueryRaw("&(info=A)(info=Ghost)"); err == nil {
		t.Error("unknown keyword accepted (all-or-nothing violated)")
	}
}

func TestAuthorizationContracts(t *testing.T) {
	// E12: the paper's "allow 3-4pm to user X" contract enforced per
	// operation over the wire, driven by a fake clock.
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{KeywordName: "K"}, provider.RegisterOptions{TTL: time.Hour})

	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=CA", 24*time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	svcCred, _ := ca.IssueIdentity("/O=Grid/CN=svc", 24*time.Hour, now)
	userX, _ := ca.IssueIdentity("/O=Grid/CN=userX", 24*time.Hour, now)
	gm := gsi.NewGridmap()
	gm.Add("/O=Grid/CN=userX", "userx")

	// Window covering the current hour for jobs; info always allowed.
	h := now.Hour()
	policy := gsi.NewPolicy(gsi.Deny)
	policy.Add(gsi.Contract{Subject: "*", Operation: gsi.OpInfoQuery, Effect: gsi.Allow})
	policy.Add(gsi.Contract{
		Subject:   "/O=Grid/CN=userX",
		Operation: gsi.OpJobSubmit,
		Window: gsi.Window{
			From: time.Duration(h) * time.Hour,
			To:   time.Duration(h+1) * time.Hour,
		},
		Effect: gsi.Allow,
	})

	fn := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
	fn.RegisterFunc("noop", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		return "", nil
	})
	svc := core.NewService(core.Config{
		ResourceName: "authz.test",
		Credential:   svcCred, Trust: trust, Gridmap: gm, Policy: policy,
		Registry: reg,
		Backends: gram.Backends{Func: fn},
	})
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	cl, err := core.Dial(addr, userX, trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Inside the window: both operations work.
	if _, err := cl.QueryRaw("&(info=K)"); err != nil {
		t.Errorf("info inside window: %v", err)
	}
	if _, err := cl.Submit("&(executable=noop)(jobtype=func)"); err != nil {
		t.Errorf("job inside window: %v", err)
	}
}

// openJournal opens the journal in dir, as a restarted -state-dir server
// does on boot, and returns it with the state it replayed.
func openJournal(t *testing.T, dir string) (*journal.Journal, *journal.Recovered) {
	t.Helper()
	jnl, rec, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return jnl, rec
}

// withJournal sets the journal a test grid's service runs on; the service
// closes it on Close, which is how the tests below crash it.
func withJournal(jnl *journal.Journal) func(*core.Config) {
	return func(c *core.Config) { c.Journal = jnl }
}

func TestRestartRecovery(t *testing.T) {
	// E11: kill the service mid-job; a new service replays the journal and
	// resubmits the unfinished work.
	dir := t.TempDir()
	jnl, _ := openJournal(t, dir)
	g := newTestGridConfig(t, provider.NewRegistry(nil), nil, withJournal(jnl))
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}

	// A job that blocks forever in service 1.
	blockC := make(chan struct{})
	g.fn.RegisterFunc("block", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		select {
		case <-blockC:
			return "released", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	})
	blocked, err := cl.Submit("&(executable=block)(jobtype=func)")
	if err != nil {
		t.Fatal(err)
	}
	// And one that completed.
	doneContact, err := cl.Submit("&(executable=hello)(jobtype=func)")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cl.WaitTerminal(ctx, doneContact, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	g.svc.Close() // crash
	defer close(blockC)

	// Service 2 recovers from the same state directory. Its func backend
	// resolves "block" instantly so the recovered job completes.
	jnl2, rec := openJournal(t, dir)
	g2 := newTestGridConfig(t, provider.NewRegistry(nil), nil, withJournal(jnl2))
	g2.fn.RegisterFunc("block", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		return "recovered-run", nil
	})
	contacts, err := g2.svc.RecoverJournal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(contacts) != 1 || contacts[0] != blocked {
		t.Fatalf("recovered %v, want only the unfinished job %s", contacts, blocked)
	}
	if st := waitTerminal(t, g2, blocked); st.State != job.Done || st.Stdout != "recovered-run" {
		t.Errorf("recovered job = %+v", st)
	}
	if st := waitTerminal(t, g2, doneContact); st.State != job.Done || st.Stdout != "hello " {
		t.Errorf("finished job after restart = %+v; want its recorded DONE", st)
	}
}

func TestCheckpointResume(t *testing.T) {
	// §10: "automatic restart capabilities enabled through
	// checkpointing." A job checkpoints its progress; the service
	// crashes; the recovered job resumes from the last checkpoint rather
	// than from scratch.
	dir := t.TempDir()
	jnl, _ := openJournal(t, dir)
	g := newTestGridConfig(t, provider.NewRegistry(nil), nil, withJournal(jnl))

	// Phase 1: the job advances to step 3, checkpointing each step, then
	// stalls until the service dies.
	stall := make(chan struct{})
	g.fn.RegisterFunc("phased", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		start := 0
		if r := sb.Restored(); r != "" {
			if _, err := fmt.Sscanf(r, "step=%d", &start); err != nil {
				return "", err
			}
		}
		for i := start; i < 3; i++ {
			sb.Checkpoint(fmt.Sprintf("step=%d", i+1))
		}
		if start == 0 {
			// Fresh run: stall so the crash interrupts it.
			select {
			case <-stall:
			case <-ctx.Done():
			}
			return "", ctx.Err()
		}
		return fmt.Sprintf("resumed-from=%d", start), nil
	})
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit("&(executable=phased)(jobtype=func)"); err != nil {
		t.Fatal(err)
	}
	// Wait until the last checkpoint reaches the journal.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if jobs := jnl.Jobs(); len(jobs) == 1 && jobs[0].Checkpoint == "step=3" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoints never journaled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cl.Close()
	g.svc.Close() // crash
	// The journal is closed with the service, so once the stall is
	// released the abandoned run cannot record itself DONE.
	close(stall)

	// Phase 2: recovery resumes from step=3.
	jnl2, rec := openJournal(t, dir)
	g2 := newTestGridConfig(t, provider.NewRegistry(nil), nil, withJournal(jnl2))
	g2.fn.RegisterFunc("phased", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		return "resumed-from-checkpoint:" + sb.Restored(), nil
	})
	contacts, err := g2.svc.RecoverJournal(rec)
	if err != nil || len(contacts) != 1 {
		t.Fatalf("recovered %d (%v)", len(contacts), err)
	}
	if st := waitTerminal(t, g2, contacts[0]); st.State != job.Done || st.Stdout != "resumed-from-checkpoint:step=3" {
		t.Errorf("recovered job = %+v", st)
	}
}

// A job that crashed at restart 1 logs its PENDING restarts=1 line once per
// service run: the restarted service writes it again when it resumes the
// job. The audit log both runs append to still accounts one restart.
func TestRecoveredRestartIsAccountedOnce(t *testing.T) {
	dir := t.TempDir()
	logBuf := &syncBuffer{}
	jnl, _ := openJournal(t, dir)
	g := newTestGridConfig(t, provider.NewRegistry(nil), logging.NewLogger(logBuf), withJournal(jnl))
	second := make(chan struct{})
	// The crashed run's attempt stays parked until the test ends: released
	// earlier, it would log a DONE of its own through the first logger.
	stall := make(chan struct{})
	defer close(stall)
	attempts := 0
	g.fn.RegisterFunc("flaky", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		if attempts++; attempts == 1 {
			return "", errors.New("transient fault")
		}
		close(second) // the restart-1 ACTIVE line is logged before the attempt runs
		select {
		case <-stall:
		case <-ctx.Done():
		}
		return "", ctx.Err()
	})
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	contact, err := cl.Submit("&(executable=flaky)(jobtype=func)(restart=2)")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-second:
	case <-time.After(5 * time.Second):
		t.Fatal("second attempt never started")
	}
	cl.Close()
	g.svc.Close() // crash at restart 1

	jnl2, rec := openJournal(t, dir)
	g2 := newTestGridConfig(t, provider.NewRegistry(nil), logging.NewLogger(logBuf), withJournal(jnl2))
	g2.fn.RegisterFunc("flaky", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		return "recovered-run", nil
	})
	if _, err := g2.svc.RecoverJournal(rec); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, g2, contact); st.State != job.Done || st.Restarts != 1 {
		t.Fatalf("recovered job = %+v; want DONE at restart 1", st)
	}
	recs, err := logging.Replay(bytes.NewReader(logBuf.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	sums := logging.Accounting(recs)
	if len(sums) != 1 || sums[0].JobsSubmit != 1 || sums[0].JobsRestart != 1 || sums[0].JobsDone != 1 {
		t.Errorf("accounting = %+v; want one submission, one restart, one DONE", sums)
	}
}

// crashState is the replayed journal of a service that died while the job
// was ACTIVE on its first attempt.
func crashState(contact, spec string) *journal.Recovered {
	return &journal.Recovered{Jobs: []journal.JobState{{
		Contact: contact, Spec: spec, Owner: "alice", Identity: "/O=Grid/CN=alice", State: job.Active,
	}}}
}

// waitTerminal polls contact on g until it reaches a terminal state.
func waitTerminal(t *testing.T, g *testGrid, contact string) gram.StatusReply {
	t.Helper()
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := cl.WaitTerminal(ctx, contact, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("status of %s: %v", contact, err)
	}
	return st
}

// A journaled job whose spec no longer decodes is reported, not dropped.
func TestRecoverJournalUndecodableSpecFails(t *testing.T) {
	const contact = "gram://old.host:1/8/1234"
	g := newTestGrid(t, provider.NewRegistry(nil))
	resumed, err := g.svc.RecoverJournal(crashState(contact, "&(executable="))
	if err != nil || len(resumed) != 0 {
		t.Fatalf("RecoverJournal = %v, %v; want nothing resumed and no error", resumed, err)
	}
	st := waitTerminal(t, g, contact)
	if st.State != job.Failed || !strings.HasPrefix(st.Error, "recovery:") {
		t.Errorf("status = %+v; want FAILED with a recovery: annotation", st)
	}
}

func TestRecoverBeforeListenIsAnError(t *testing.T) {
	svc := core.NewService(core.Config{ResourceName: "unbound", Registry: provider.NewRegistry(nil)})
	if _, err := svc.RecoverJournal(crashState("gram://old.host:1/9/1234", "&(executable=hello)(jobtype=func)")); err == nil {
		t.Error("RecoverJournal before Listen succeeded; want an error")
	}
}

func TestInfoQueriesAreLogged(t *testing.T) {
	logBuf := &syncBuffer{}
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{KeywordName: "K"}, provider.RegisterOptions{TTL: time.Hour})
	g := newTestGridWithLog(t, reg, logging.NewLogger(logBuf))
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.QueryRaw("&(info=K)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.QueryRaw("&(info=all)"); err != nil {
		t.Fatal(err)
	}
	recs, err := logging.Replay(bytes.NewReader(logBuf.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	var queries [][]string
	for _, r := range recs {
		if r.Kind == logging.KindInfoQuery {
			if r.Identity != "/O=Grid/CN=alice" {
				t.Errorf("query identity = %q", r.Identity)
			}
			queries = append(queries, r.Keywords)
		}
	}
	if len(queries) != 2 || queries[0][0] != "K" || queries[1][0] != "all" {
		t.Errorf("logged queries = %v", queries)
	}
}

func TestSandboxEnforcementThroughService(t *testing.T) {
	// E13: an untrusted in-process job is stopped by the restricted
	// sandbox when submitted through the full service stack.
	reg := provider.NewRegistry(nil)
	now := time.Now()
	ca, _ := gsi.NewCA("/O=Grid/CN=CA", time.Hour, now)
	trust := gsi.NewTrustStore(ca.Certificate())
	svcCred, _ := ca.IssueIdentity("/O=Grid/CN=svc", time.Hour, now)
	user, _ := ca.IssueIdentity("/O=Grid/CN=alice", time.Hour, now)
	gm := gsi.NewGridmap()
	gm.Add("/O=Grid/CN=alice", "alice")

	fn := scheduler.NewFunc(scheduler.RestrictedMode, scheduler.Budgets{
		Steps: 1000, AllocBytes: 1 << 20, WallTime: time.Minute,
	})
	fn.RegisterFunc("hog", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		for {
			if err := sb.Step(); err != nil {
				return "", err
			}
		}
	})
	svc := core.NewService(core.Config{
		ResourceName: "sandbox.test",
		Credential:   svcCred, Trust: trust, Gridmap: gm,
		Registry: reg,
		Backends: gram.Backends{Func: fn},
	})
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	cl, err := core.Dial(addr, user, trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	contact, err := cl.Submit("&(executable=hog)(jobtype=func)")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := cl.WaitTerminal(ctx, contact, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != job.Failed || !strings.Contains(st.Error, "exit code") {
		t.Errorf("st = %+v", st)
	}
	if !strings.Contains(st.Stderr, "step budget") {
		t.Errorf("stderr = %q", st.Stderr)
	}
}

func TestMDSBackwardCompat(t *testing.T) {
	// E17: the same InfoGram providers answer through the MDS protocol —
	// a GRIS bound to the service registry, registered in a GIIS.
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "Memory",
		Values:      provider.Attributes{{Name: "total", Value: "2048"}},
	}, provider.RegisterOptions{TTL: time.Hour})
	g := newTestGrid(t, reg)

	gris := g.svc.GRIS()
	if _, err := gris.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer gris.Close()

	giis := mds.NewGIIS(mds.GIISConfig{
		OrgName:    "vo",
		Credential: g.svcCred,
		Trust:      g.trust,
	})
	if _, err := giis.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer giis.Close()
	giis.Register(gris.Addr())

	// An MDS client querying the GIIS sees InfoGram's information.
	mcl, err := mds.Dial(giis.Addr(), g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer mcl.Close()
	entries, err := mcl.Search(mds.SearchRequest{Filter: "(kw=Memory)"})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d", len(entries))
	}
	if v, _ := entries[0].Get("Memory:total"); v != "2048" {
		t.Errorf("Memory:total = %q", v)
	}
	// And the same data is visible through the InfoGram protocol — one
	// provider registry, two protocols during the gradual transition.
	icl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer icl.Close()
	res, err := icl.QueryRaw("&(info=Memory)")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Entries[0].Get("Memory:total"); v != "2048" {
		t.Errorf("InfoGram Memory:total = %q", v)
	}
}

func TestFigure4SingleProtocol(t *testing.T) {
	// E4 structural claim: the combined workflow (query load, then submit
	// a job) runs over ONE connection to ONE port with ONE protocol.
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "CPULoad",
		Values:      provider.Attributes{{Name: "load1", Value: "0"}},
	}, provider.RegisterOptions{TTL: time.Hour})
	g := newTestGrid(t, reg)
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.QueryRaw("&(info=CPULoad)"); err != nil {
		t.Fatal(err)
	}
	contact, err := cl.Submit("&(executable=hello)(jobtype=func)")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cl.WaitTerminal(ctx, contact, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := g.svc.AcceptedConns(); got != 1 {
		t.Errorf("connections used = %d, want 1 (Figure 4)", got)
	}
	_ = cache.Cached
}

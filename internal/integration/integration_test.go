// Package integration_test exercises whole-deployment scenarios that span
// several subsystems: the Figure 2 baseline (separate GRAM + MDS, two
// protocols) against the Figure 4 unified InfoGram deployment, and the
// gradual-transition story where both run side by side.
package integration_test

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"infogram/internal/core"
	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/job"
	"infogram/internal/journal"
	"infogram/internal/mds"
	"infogram/internal/provider"
	"infogram/internal/scheduler"
)

// deployment is a complete simulated grid site: security fabric, a shared
// provider registry, and whichever services a scenario starts.
type deployment struct {
	trust   *gsi.TrustStore
	gridmap *gsi.Gridmap
	svcCred *gsi.Credential
	user    *gsi.Credential
	reg     *provider.Registry
}

func newDeployment(t *testing.T) *deployment {
	t.Helper()
	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=Integration CA", time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	svcCred, _ := ca.IssueIdentity("/O=Grid/CN=site-service", time.Hour, now)
	user, _ := ca.IssueIdentity("/O=Grid/CN=alice", time.Hour, now)
	gm := gsi.NewGridmap()
	gm.Add("/O=Grid/CN=alice", "alice")

	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "CPULoad",
		Values:      provider.Attributes{{Name: "load1", Value: "2"}},
	}, provider.RegisterOptions{TTL: time.Minute})

	return &deployment{
		trust:   gsi.NewTrustStore(ca.Certificate()),
		gridmap: gm,
		svcCred: svcCred,
		user:    user,
		reg:     reg,
	}
}

func (d *deployment) backends() gram.Backends {
	fn := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
	fn.RegisterFunc("noop", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		return "done", nil
	})
	return gram.Backends{Func: fn, Exec: &scheduler.Fork{}}
}

func TestFigure2TwoProtocolBaseline(t *testing.T) {
	// The baseline workflow: a client that wants to pick a resource by
	// CPU load and then run a job must (a) speak the MDS protocol to a
	// GRIS on one port, then (b) speak GRAMP to a GRAM on another port —
	// two connections, two protocol codecs.
	d := newDeployment(t)

	gramSvc := gram.NewService(gram.Config{
		Credential: d.svcCred, Trust: d.trust, Gridmap: d.gridmap,
		Backends: d.backends(),
	})
	gramAddr, err := gramSvc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gramSvc.Close()

	gris := mds.NewGRIS(mds.GRISConfig{
		ResourceName: "site", Registry: d.reg,
		Credential: d.svcCred, Trust: d.trust,
	})
	grisAddr, err := gris.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gris.Close()

	// Protocol 1: MDS search.
	mcl, err := mds.Dial(grisAddr, d.user, d.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer mcl.Close()
	entries, err := mcl.Search(mds.SearchRequest{Filter: "(kw=CPULoad)"})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := entries[0].Get("CPULoad:load1"); v != "2" {
		t.Fatalf("load = %q", v)
	}

	// Protocol 2: GRAMP submit.
	gcl, err := gram.Dial(gramAddr, d.user, d.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer gcl.Close()
	contact, err := gcl.Submit("&(executable=noop)(jobtype=func)")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := gcl.WaitTerminal(ctx, contact, 5*time.Millisecond)
	if err != nil || st.State != job.Done {
		t.Fatalf("job: %v %v", st, err)
	}

	// The structural cost of Figure 2: two connections to two ports.
	if gramSvc.AcceptedConns() != 1 || gris.AcceptedConns() != 1 {
		t.Errorf("connections: gram=%d gris=%d", gramSvc.AcceptedConns(), gris.AcceptedConns())
	}
	if gramAddr == grisAddr {
		t.Error("baseline services share a port")
	}
	// And the protocols are genuinely disjoint: GRAM rejects info
	// queries outright.
	if _, err := gcl.Submit("&(info=CPULoad)"); err == nil {
		t.Error("GRAM accepted an information query")
	}
}

func TestGradualTransition(t *testing.T) {
	// §6.5: "we provide the option to move to a different Information
	// provider while enabling a gradual transition." One site runs
	// InfoGram AND keeps its MDS face: old MDS clients and new InfoGram
	// clients see the same information simultaneously.
	d := newDeployment(t)
	svc := core.NewService(core.Config{
		ResourceName: "site",
		Credential:   d.svcCred, Trust: d.trust, Gridmap: d.gridmap,
		Registry: d.reg,
		Backends: d.backends(),
	})
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	gris := svc.GRIS()
	grisAddr, err := gris.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gris.Close()

	// Old-world client.
	mcl, err := mds.Dial(grisAddr, d.user, d.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer mcl.Close()
	oldView, err := mcl.Search(mds.SearchRequest{Filter: "(kw=CPULoad)"})
	if err != nil {
		t.Fatal(err)
	}

	// New-world client.
	icl, err := core.Dial(addr, d.user, d.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer icl.Close()
	newView, err := icl.QueryRaw("&(info=CPULoad)")
	if err != nil {
		t.Fatal(err)
	}

	oldLoad, _ := oldView[0].Get("CPULoad:load1")
	newLoad, _ := newView.Entries[0].Get("CPULoad:load1")
	if oldLoad != newLoad {
		t.Errorf("views diverge: MDS %q vs InfoGram %q", oldLoad, newLoad)
	}
	// Both views hit the same cache: the provider executed once.
	g, _ := d.reg.Lookup("CPULoad")
	if execs := g.CacheStats().Execs; execs != 1 {
		t.Errorf("provider executed %d times across both protocols", execs)
	}
}

func TestGIISHierarchy(t *testing.T) {
	// GIIS aggregates can stack: a top-level VO index registers a
	// site-level index, which registers the site's GRISes — the
	// decentralized aggregation model of §3.
	d := newDeployment(t)
	mkGRIS := func(name, load string) *mds.GRIS {
		reg := provider.NewRegistry(nil)
		reg.Register(&provider.StaticProvider{
			KeywordName: "CPULoad",
			Values:      provider.Attributes{{Name: "load1", Value: load}},
		}, provider.RegisterOptions{TTL: time.Minute})
		g := mds.NewGRIS(mds.GRISConfig{
			ResourceName: name, Registry: reg,
			Credential: d.svcCred, Trust: d.trust,
		})
		if _, err := g.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return g
	}
	g1 := mkGRIS("siteA.res1", "1")
	g2 := mkGRIS("siteA.res2", "3")

	siteIndex := mds.NewGIIS(mds.GIISConfig{OrgName: "siteA", Credential: d.svcCred, Trust: d.trust})
	if _, err := siteIndex.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer siteIndex.Close()
	siteIndex.Register(g1.Addr())
	siteIndex.Register(g2.Addr())

	voIndex := mds.NewGIIS(mds.GIISConfig{OrgName: "vo", Credential: d.svcCred, Trust: d.trust})
	if _, err := voIndex.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer voIndex.Close()
	voIndex.Register(siteIndex.Addr())

	cl, err := mds.Dial(voIndex.Addr(), d.user, d.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	entries, err := cl.Search(mds.SearchRequest{Filter: "(kw=CPULoad)"})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries through two-level hierarchy = %d", len(entries))
	}
	// Numeric selection through the hierarchy.
	entries, err = cl.Search(mds.SearchRequest{Filter: "(&(kw=CPULoad)(CPULoad:load1<=2))"})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("filtered entries = %d", len(entries))
	}
	if r, _ := entries[0].Get("resource"); r != "siteA.res1" {
		t.Errorf("resource = %q", r)
	}
}

func TestGRAMClientAgainstInfoGram(t *testing.T) {
	// The paper's backwards-compatibility claim at the protocol level:
	// "This Job Execution service within J-GRAM is protocol-compatible
	// with the C-GRAM distributed with the Globus Toolkit" — and InfoGram
	// keeps that protocol, so an unmodified GRAM client can submit, poll,
	// signal, and cancel jobs against an InfoGram service. The same plain
	// GRAM client drives both front doors through the same script, and
	// each answer must match the other's, verb and payload, once the
	// contacts are normalised; so must what each journal recorded.
	d := newDeployment(t)
	doors := []struct {
		name  string
		start func(jnl *journal.Journal) (addr string, close func() error)
	}{
		{"gram", func(jnl *journal.Journal) (string, func() error) {
			svc := gram.NewService(gram.Config{
				Credential: d.svcCred, Trust: d.trust, Gridmap: d.gridmap,
				Backends: d.backends(), Journal: jnl,
			})
			addr, err := svc.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			return addr, svc.Close
		}},
		{"infogram", func(jnl *journal.Journal) (string, func() error) {
			svc := core.NewService(core.Config{
				ResourceName: "site",
				Credential:   d.svcCred, Trust: d.trust, Gridmap: d.gridmap,
				Registry: d.reg, Backends: d.backends(), Journal: jnl,
			})
			addr, err := svc.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			return addr, svc.Close
		}},
	}
	var transcripts, specs [2]string
	for n, door := range doors {
		dir := t.TempDir()
		jnl, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		addr, closeSvc := door.start(jnl)
		cl, err := gram.Dial(addr, d.user, d.trust)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		var (
			lines    []string
			contacts []string
		)
		record := func(step string, reply any, err error) {
			if err != nil {
				reply = "ERROR " + err.Error()
			}
			lines = append(lines, fmt.Sprintf("%s: %+v", step, reply))
		}
		submit := func(src string) string {
			contact, err := cl.Submit(src)
			if err != nil {
				t.Fatalf("%s: Submit(%s): %v", door.name, src, err)
			}
			if !strings.HasPrefix(contact, "gram://"+addr+"/") {
				t.Fatalf("%s: contact %q does not name the service", door.name, contact)
			}
			contacts = append(contacts, contact)
			record("SUBMIT "+src, "SUBMITTED", nil)
			return contact
		}
		waitFor := func(contact string, done func(job.State) bool) {
			for {
				st, err := cl.Status(contact)
				if err != nil || done(st.State) {
					record("STATUS", st, err)
					return
				}
				if ctx.Err() != nil {
					t.Fatalf("%s: %s stuck in %s", door.name, contact, st.State)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}

		record("PING", "PONG", cl.Ping())
		noop := submit("&(executable=noop)(jobtype=func)")
		waitFor(noop, job.State.Terminal)

		sleeper := submit("&(executable=/bin/sleep)(arguments=30)")
		waitFor(sleeper, func(s job.State) bool { return s == job.Active })
		record("SIGNAL suspend", "SIGNAL-OK", cl.Signal(sleeper, "suspend"))
		waitFor(sleeper, func(job.State) bool { return true })
		record("SIGNAL resume", "SIGNAL-OK", cl.Signal(sleeper, "resume"))
		waitFor(sleeper, func(job.State) bool { return true })
		record("CANCEL", "CANCEL-OK", cl.Cancel(sleeper))
		waitFor(sleeper, job.State.Terminal)

		unknown, err := cl.Status("gram://elsewhere.example:2119/1/1")
		record("STATUS unknown", unknown, err)
		// Job id 1 was issued, but never under this timestamp: the
		// contact reads as one the table has forgotten.
		expired, err := cl.Status("gram://" + addr + "/1/0")
		record("STATUS expired", expired, err)

		// A job spelled with whitespace: both doors journal its canonical
		// RSL, not the bytes the client sent.
		spaced := submit("& (executable = noop) (jobtype = func)")
		waitFor(spaced, job.State.Terminal)

		cancel()
		cl.Close()
		if err := closeSvc(); err != nil {
			t.Fatal(err)
		}
		reopened, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := reopened.Table().Get(spaced)
		reopened.Close()
		if err != nil {
			t.Fatalf("%s: journal lost %s: %v", door.name, spaced, err)
		}
		specs[n] = rec.Spec

		transcript := strings.Join(lines, "\n")
		for i, c := range contacts {
			transcript = strings.ReplaceAll(transcript, c, fmt.Sprintf("<job %d>", i+1))
		}
		transcripts[n] = strings.ReplaceAll(transcript, addr, "HOST")
	}
	if transcripts[0] != transcripts[1] {
		t.Errorf("the GRAM client saw different answers:\n-- %s:\n%s\n-- %s:\n%s",
			doors[0].name, transcripts[0], doors[1].name, transcripts[1])
	}
	for _, want := range []string{"STATUS: {Contact:<job 1> State:DONE ExitCode:0 Error: Stdout:done", "SIGNAL suspend: SIGNAL-OK",
		"STATUS: {Contact:<job 2> State:SUSPENDED", "STATUS: {Contact:<job 2> State:FAILED", "unknown contact", "expired"} {
		if !strings.Contains(transcripts[1], want) {
			t.Errorf("transcript lacks %q:\n%s", want, transcripts[1])
		}
	}
	if specs[0] != specs[1] {
		t.Errorf("journaled Spec: %s %q, %s %q", doors[0].name, specs[0], doors[1].name, specs[1])
	}
}

func TestManyResourcesOneBrokerScan(t *testing.T) {
	// A wider Figure 4 deployment: 5 InfoGram resources, a client walking
	// all of them over the unified protocol, verifying per-resource DNs.
	d := newDeployment(t)
	addrs := make([]string, 5)
	for i := range addrs {
		reg := provider.NewRegistry(nil)
		reg.Register(&provider.StaticProvider{
			KeywordName: "Resource",
			Values:      provider.Attributes{{Name: "idx", Value: strconv.Itoa(i)}},
		}, provider.RegisterOptions{TTL: time.Minute})
		svc := core.NewService(core.Config{
			ResourceName: "node" + strconv.Itoa(i),
			Credential:   d.svcCred, Trust: d.trust, Gridmap: d.gridmap,
			Registry: reg,
			Backends: d.backends(),
		})
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		addrs[i] = addr
	}
	for i, addr := range addrs {
		cl, err := core.Dial(addr, d.user, d.trust)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.QueryRaw("&(info=Resource)")
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := res.Entries[0].Get("Resource:idx"); v != strconv.Itoa(i) {
			t.Errorf("node %d reports idx %q", i, v)
		}
	}
}

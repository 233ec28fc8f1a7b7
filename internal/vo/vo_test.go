package vo_test

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"infogram/internal/cache"
	"infogram/internal/core"
	"infogram/internal/diffract"
	"infogram/internal/job"
	"infogram/internal/scheduler"
	"infogram/internal/vo"
	"infogram/internal/xrsl"
)

func newGrid(t *testing.T, resources int) *vo.SporadicGrid {
	t.Helper()
	g, err := vo.NewSporadicGrid(vo.SporadicConfig{
		OrgName:   "aps.anl.gov",
		Resources: resources,
		LoadTTL:   20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func TestSporadicGridBringUp(t *testing.T) {
	g := newGrid(t, 3)
	if len(g.Members) != 3 || len(g.Addrs()) != 3 {
		t.Fatalf("members = %d", len(g.Members))
	}
	cred := g.AnyCredential()
	if cred == nil {
		t.Fatal("no user credential")
	}
	// Every member answers an identity query over InfoGram.
	for _, m := range g.Members {
		cl, err := core.Dial(m.Addr, cred, g.Trust)
		if err != nil {
			t.Fatalf("dial %s: %v", m.Name, err)
		}
		res, err := cl.QueryRaw("&(info=Resource)")
		cl.Close()
		if err != nil {
			t.Fatalf("query %s: %v", m.Name, err)
		}
		if v, _ := res.Entries[0].Get("Resource:name"); v != m.Name {
			t.Errorf("Resource:name = %q, want %q", v, m.Name)
		}
	}
}

func TestLoadProviderReflectsJobTable(t *testing.T) {
	g := newGrid(t, 1)
	m := g.Members[0]
	cred := g.AnyCredential()
	cl, err := core.Dial(m.Addr, cred, g.Trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	load := func() int {
		t.Helper()
		res, err := cl.QueryRaw("&(info=CPULoad)(response=immediate)")
		if err != nil {
			t.Fatal(err)
		}
		v, _ := res.Entries[0].Get("CPULoad:load1")
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	if l := load(); l != 0 {
		t.Errorf("idle load = %d", l)
	}
	// Park a blocking job; load rises.
	release := make(chan struct{})
	m.Func.RegisterFunc("park", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		select {
		case <-release:
			return "", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	})
	contact, err := cl.Submit("&(executable=park)(jobtype=func)")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if l := load(); l != 1 {
		t.Errorf("busy load = %d, want 1", l)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cl.WaitTerminal(ctx, contact, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if l := load(); l != 0 {
		t.Errorf("post-job load = %d", l)
	}
}

func TestBrokerLeastLoaded(t *testing.T) {
	g := newGrid(t, 3)
	broker := vo.NewBroker(g.Addrs(), g.AnyCredential(), g.Trust)
	defer broker.Close()

	loads, err := broker.Loads(cache.Immediate, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != 3 {
		t.Fatalf("loads = %+v", loads)
	}
	// Park a job on member 0 so it becomes the most loaded.
	release := make(chan struct{})
	defer close(release)
	g.Members[0].Func.RegisterFunc("park", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		select {
		case <-release:
			return "", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	})
	cl, err := core.Dial(g.Members[0].Addr, g.AnyCredential(), g.Trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Submit("&(executable=park)(jobtype=func)"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)

	target, err := broker.LeastLoaded(cache.Immediate, 0)
	if err != nil {
		t.Fatal(err)
	}
	if target.Addr == g.Members[0].Addr {
		t.Errorf("broker chose the loaded member %s", target.Addr)
	}
	if target.Load != 0 {
		t.Errorf("least load = %d", target.Load)
	}
}

func TestBrokerRunJob(t *testing.T) {
	g := newGrid(t, 2)
	broker := vo.NewBroker(g.Addrs(), g.AnyCredential(), g.Trust)
	defer broker.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p, err := broker.Run(ctx, xrsl.JobRequest{
		Executable: vo.AnalysisJobName,
		Arguments:  diffract.EncodeArgs(1, 2, 8, 8, 77),
		JobType:    "func",
	}, cache.Immediate, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Status.State != job.Done {
		t.Fatalf("placement = %+v", p)
	}
	a, err := diffract.ParseResult(strings.TrimSpace(p.Status.Stdout))
	if err != nil {
		t.Fatal(err)
	}
	if a.X != 1 || a.Y != 2 {
		t.Errorf("analysis = %+v", a)
	}
}

// A member answers for a finished job only until job.KeepTerminal to
// 2·job.KeepTerminal later jobs have finished there: Wait on a placement
// it has forgotten reports job.ErrExpired, not a generic error.
func TestBrokerWaitOnExpiredPlacement(t *testing.T) {
	g := newGrid(t, 1)
	broker := vo.NewBroker(g.Addrs(), g.AnyCredential(), g.Trust)
	defer broker.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p, err := broker.Submit(xrsl.JobRequest{
		Executable: vo.AnalysisJobName,
		Arguments:  diffract.EncodeArgs(1, 2, 8, 8, 77),
		JobType:    "func",
	}, cache.Immediate, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := broker.Wait(ctx, p); err != nil || st.State != job.Done {
		t.Fatalf("first Wait = %+v, %v", st, err)
	}
	// 2·KeepTerminal later jobs finish on the member; they are filed
	// straight into its job table rather than run.
	tbl := g.Members[0].Service.Table()
	later := time.Now().Add(time.Second)
	var done []job.Record
	for i := 0; i < 2*job.KeepTerminal; i++ {
		at := later.Add(time.Duration(i) * time.Microsecond)
		done = append(done, job.Record{Contact: tbl.NewContact(at), State: job.Done, Submitted: at, Updated: at})
	}
	tbl.Restore(done, 0)
	_, err = broker.Wait(ctx, p)
	if !errors.Is(err, job.ErrExpired) || !strings.Contains(err.Error(), p.Contact) {
		t.Fatalf("Wait on a forgotten placement = %v; want job.ErrExpired naming %s", err, p.Contact)
	}
}

func TestSporadicGridEndToEnd(t *testing.T) {
	// E14: scan a small specimen field across the grid via the broker and
	// reconstruct the domain map.
	if testing.Short() {
		t.Skip("short mode")
	}
	const w, h = 6, 6
	const seed = 2002
	g := newGrid(t, 3)
	broker := vo.NewBroker(g.Addrs(), g.AnyCredential(), g.Trust)
	defer broker.Close()

	jobs := make([]xrsl.JobRequest, 0, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			jobs = append(jobs, xrsl.JobRequest{
				Executable: vo.AnalysisJobName,
				Arguments:  diffract.EncodeArgs(x, y, w, h, seed),
				JobType:    "func",
			})
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results := broker.RunBatch(ctx, jobs, 6, cache.Cached, 50)

	m := diffract.NewDomainMap(w, h)
	placements := map[string]int{}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Placement.Status.State != job.Done {
			t.Fatalf("job %d state = %s (%s)", i, r.Placement.Status.State, r.Placement.Status.Error)
		}
		a, err := diffract.ParseResult(strings.TrimSpace(r.Placement.Status.Stdout))
		if err != nil {
			t.Fatalf("job %d result: %v", i, err)
		}
		m.Set(a.X, a.Y, a.Phase)
		placements[r.Placement.Addr]++
	}
	if acc := m.Accuracy(seed); acc < 0.85 {
		t.Errorf("domain map accuracy = %v", acc)
	}
	// The broker spread work across members rather than piling onto one.
	if len(placements) < 2 {
		t.Errorf("all jobs placed on one member: %v", placements)
	}
}

func TestIndexDiscovery(t *testing.T) {
	// A grid with an index: clients discover members through one GIIS
	// query and then broker jobs to them — no static address list.
	g, err := vo.NewSporadicGrid(vo.SporadicConfig{
		OrgName:   "indexed.org",
		Resources: 3,
		WithIndex: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Index == nil {
		t.Fatal("no index")
	}
	cred := g.AnyCredential()
	addrs, err := vo.DiscoverMembers(g.Index.Addr(), cred, g.Trust)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 3 {
		t.Fatalf("discovered %d members: %v", len(addrs), addrs)
	}
	want := map[string]bool{}
	for _, m := range g.Members {
		want[m.Addr] = true
	}
	for _, a := range addrs {
		if !want[a] {
			t.Errorf("discovered unknown address %q", a)
		}
	}
	// The discovered addresses drive a working broker.
	broker := vo.NewBroker(addrs, cred, g.Trust)
	defer broker.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p, err := broker.Run(ctx, xrsl.JobRequest{
		Executable: vo.AnalysisJobName,
		Arguments:  diffract.EncodeArgs(0, 0, 4, 4, 1),
		JobType:    "func",
	}, cache.Immediate, 0)
	if err != nil || p.Status.State != job.Done {
		t.Fatalf("brokered job via discovery: %+v %v", p, err)
	}
}

func TestBrokerWithAllMembersDown(t *testing.T) {
	g := newGrid(t, 2)
	broker := vo.NewBroker(g.Addrs(), g.AnyCredential(), g.Trust)
	defer broker.Close()
	g.Close() // everything dies
	if _, err := broker.Loads(cache.Cached, 0); err == nil {
		t.Error("Loads with all members down succeeded")
	}
	if _, err := broker.LeastLoaded(cache.Cached, 0); err == nil {
		t.Error("LeastLoaded with all members down succeeded")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := broker.Run(ctx, xrsl.JobRequest{Executable: "x", JobType: "func"}, cache.Cached, 0); err == nil {
		t.Error("Run with all members down succeeded")
	}
}

func TestBrokerSkipsDeadMember(t *testing.T) {
	g := newGrid(t, 3)
	broker := vo.NewBroker(g.Addrs(), g.AnyCredential(), g.Trust)
	defer broker.Close()
	// Kill one member; the broker keeps working with the rest.
	g.Members[1].Service.Close()
	loads, err := broker.Loads(cache.Immediate, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != 2 {
		t.Errorf("loads = %+v", loads)
	}
	for _, l := range loads {
		if l.Addr == g.Members[1].Addr {
			t.Error("dead member answered")
		}
	}
}

func TestDiscoverMembersErrors(t *testing.T) {
	g := newGrid(t, 1) // no index
	cred := g.AnyCredential()
	if _, err := vo.DiscoverMembers("127.0.0.1:1", cred, g.Trust); err == nil {
		t.Error("discovery against dead index succeeded")
	}
}

func TestGridWithNamedUsers(t *testing.T) {
	g, err := vo.NewSporadicGrid(vo.SporadicConfig{
		OrgName:   "org",
		Resources: 1,
		Users: map[string]string{
			"/O=Grid/CN=carol": "carol",
			"/O=Grid/CN=dave":  "dave",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	carol, ok := g.Credential("/O=Grid/CN=carol")
	if !ok {
		t.Fatal("carol has no credential")
	}
	cl, err := core.Dial(g.Members[0].Addr, carol, g.Trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.QueryRaw("&(info=Resource)"); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Credential("/O=Grid/CN=ghost"); ok {
		t.Error("ghost credential exists")
	}
}

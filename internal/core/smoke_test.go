package core_test

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"infogram/internal/core"
	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/job"
	"infogram/internal/logging"
	"infogram/internal/provider"
	"infogram/internal/scheduler"
	"infogram/internal/xrsl"
)

// syncBuffer is a concurrency-safe byte buffer for log capture: tests read
// it while the service's logger is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// Snapshot returns a copy of the current contents.
func (b *syncBuffer) Snapshot() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]byte, b.buf.Len())
	copy(out, b.buf.Bytes())
	return out
}

// testGrid is the shared harness: one CA, one service, one user.
type testGrid struct {
	ca      *gsi.CA
	trust   *gsi.TrustStore
	svc     *core.Service
	svcCred *gsi.Credential
	addr    string
	user    *gsi.Credential
	fn      *scheduler.Func
}

func newTestGrid(t *testing.T, reg *provider.Registry) *testGrid {
	return newTestGridWithLog(t, reg, nil)
}

func newTestGridWithLog(t *testing.T, reg *provider.Registry, logger *logging.Logger) *testGrid {
	return newTestGridConfig(t, reg, logger, nil)
}

// newTestGridConfig is the harness with a pre-Listen config hook, for
// tests exercising admission control and other Config knobs.
func newTestGridConfig(t *testing.T, reg *provider.Registry, logger *logging.Logger, mutate func(*core.Config)) *testGrid {
	t.Helper()
	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=Test CA", time.Hour, now)
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	svcCred, err := ca.IssueIdentity("/O=Grid/CN=service", time.Hour, now)
	if err != nil {
		t.Fatalf("IssueIdentity service: %v", err)
	}
	user, err := ca.IssueIdentity("/O=Grid/CN=alice", time.Hour, now)
	if err != nil {
		t.Fatalf("IssueIdentity user: %v", err)
	}
	gm := gsi.NewGridmap()
	gm.Add("/O=Grid/CN=alice", "alice")

	fn := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
	fn.RegisterFunc("hello", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		return "hello " + strings.Join(args, " "), nil
	})

	cfg := core.Config{
		ResourceName: "test.resource",
		Credential:   svcCred,
		Trust:        trust,
		Gridmap:      gm,
		Registry:     reg,
		Backends: gram.Backends{
			Exec: &scheduler.Fork{},
			Func: fn,
		},
		Log: logger,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	svc := core.NewService(cfg)
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { svc.Close() })
	return &testGrid{
		ca: ca, trust: trust, svc: svc, svcCred: svcCred,
		addr: addr, user: user, fn: fn,
	}
}

func TestEndToEndInfoAndJob(t *testing.T) {
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "Memory",
		Values: provider.Attributes{
			{Name: "total", Value: "1024"},
			{Name: "free", Value: "512"},
		},
	}, provider.RegisterOptions{TTL: time.Second})
	g := newTestGrid(t, reg)

	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	// Information query over the same connection and protocol as jobs.
	res, err := cl.QueryRaw("&(info=Memory)")
	if err != nil {
		t.Fatalf("QueryRaw: %v", err)
	}
	if len(res.Entries) != 1 {
		t.Fatalf("expected 1 entry, got %d", len(res.Entries))
	}
	if v, _ := res.Entries[0].Get("Memory:total"); v != "1024" {
		t.Errorf("Memory:total = %q, want 1024", v)
	}

	// In-process job execution.
	contact, err := cl.Submit("&(executable=hello)(arguments=grid world)(jobtype=func)")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := cl.WaitTerminal(ctx, contact, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitTerminal: %v", err)
	}
	if st.State != job.Done {
		t.Fatalf("job state = %s (err %q), want DONE", st.State, st.Error)
	}
	if st.Stdout != "hello grid world" {
		t.Errorf("stdout = %q", st.Stdout)
	}

	// Multi-request: an info query and a job in one round trip.
	parts, err := cl.SubmitMulti("+(&(info=Memory))(&(executable=hello)(jobtype=func))")
	if err != nil {
		t.Fatalf("SubmitMulti: %v", err)
	}
	if len(parts) != 2 {
		t.Fatalf("expected 2 parts, got %d", len(parts))
	}
	if parts[0].Kind != "info" || parts[0].Info == nil {
		t.Errorf("part 0 = %+v, want info", parts[0])
	}
	if parts[1].Kind != "job" || parts[1].Contact == "" {
		t.Errorf("part 1 = %+v, want job", parts[1])
	}

	// Schema reflection: Memory plus the built-in selfmetrics and
	// selftrace providers.
	schema, err := cl.Schema()
	if err != nil {
		t.Fatalf("Schema: %v", err)
	}
	if len(schema) != 3 {
		t.Fatalf("expected 3 schema entries, got %d", len(schema))
	}
	found := false
	for _, e := range schema {
		if kw, _ := e.Get("keyword"); kw == "Memory" {
			found = true
		}
	}
	if !found {
		t.Errorf("schema missing the Memory provider: %v", schema)
	}

	// Real process execution via fork.
	contact, err = cl.Submit("&(executable=/bin/echo)(arguments=forked)")
	if err != nil {
		t.Fatalf("Submit fork: %v", err)
	}
	st, err = cl.WaitTerminal(ctx, contact, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitTerminal fork: %v", err)
	}
	if st.State != job.Done || !strings.Contains(st.Stdout, "forked") {
		t.Errorf("fork job: state=%s stdout=%q err=%q", st.State, st.Stdout, st.Error)
	}

	_ = xrsl.FormatLDIF // keep the import while the test grows
}

// TestSubstitutionVariables: $(HOME) and $(LOGNAME) resolve to the mapped
// local account in a job and in an info query alike.
func TestSubstitutionVariables(t *testing.T) {
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "alice",
		Values:      provider.Attributes{{Name: "shell", Value: "/bin/sh"}},
	}, provider.RegisterOptions{TTL: time.Hour})
	g := newTestGrid(t, reg)
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	contact, err := cl.Submit("&(executable=hello)(arguments=$(HOME) $(LOGNAME))(jobtype=func)")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := cl.WaitTerminal(ctx, contact, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != job.Done || st.Stdout != "hello /home/alice alice" {
		t.Errorf("job = %s %q, want DONE %q", st.State, st.Stdout, "hello /home/alice alice")
	}

	res, err := cl.QueryRaw("&(info=$(LOGNAME))(filter=$(LOGNAME)#:shell)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 {
		t.Fatalf("entries = %+v, want alice's", res.Entries)
	}
	if v, _ := res.Entries[0].Get("alice:shell"); v != "/bin/sh" {
		t.Errorf("alice:shell = %q, want /bin/sh", v)
	}
	// No provider is called /home/alice: the error names the substituted
	// keyword.
	if _, err := cl.QueryRaw("&(info=$(HOME))"); err == nil || !strings.Contains(err.Error(), `"/home/alice"`) {
		t.Errorf("(info=$(HOME)) error = %v, want it to name /home/alice", err)
	}
}

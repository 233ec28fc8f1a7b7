package gram_test

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/job"
	"infogram/internal/logging"
	"infogram/internal/scheduler"
	"infogram/internal/xrsl"
)

// harness bundles a GRAM service with its security fabric.
type harness struct {
	ca      *gsi.CA
	trust   *gsi.TrustStore
	gridmap *gsi.Gridmap
	svc     *gram.Service
	addr    string
	alice   *gsi.Credential
	mallory *gsi.Credential // authenticated but not in the gridmap
	logBuf  *syncBuffer
}

// syncBuffer is a concurrency-safe byte buffer: tests read the log while
// the service is still writing it.
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

func newHarness(t *testing.T, policy *gsi.Policy) *harness {
	t.Helper()
	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=CA", time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	svcCred, _ := ca.IssueIdentity("/O=Grid/CN=gram", time.Hour, now)
	alice, _ := ca.IssueIdentity("/O=Grid/CN=alice", time.Hour, now)
	mallory, _ := ca.IssueIdentity("/O=Grid/CN=mallory", time.Hour, now)
	gm := gsi.NewGridmap()
	gm.Add("/O=Grid/CN=alice", "alice")

	fn := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
	fn.RegisterFunc("work", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		return "worked:" + strings.Join(args, ","), nil
	})
	fn.RegisterFunc("fail-n", failNTimes(2))
	fn.RegisterFunc("always-fail", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		return "", context.DeadlineExceeded
	})
	fn.RegisterFunc("slow", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(10 * time.Second):
			return "slow done", nil
		}
	})

	logBuf := &syncBuffer{}
	svc := gram.NewService(gram.Config{
		Credential: svcCred,
		Trust:      trust,
		Gridmap:    gm,
		Policy:     policy,
		Backends: gram.Backends{
			Exec: &scheduler.Fork{},
			Func: fn,
		},
		Log: logging.NewLogger(logBuf),
	})
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return &harness{
		ca: ca, trust: trust, gridmap: gm, svc: svc, addr: addr,
		alice: alice, mallory: mallory, logBuf: logBuf,
	}
}

// failNTimes returns a JobFunc failing its first n invocations.
func failNTimes(n int) scheduler.JobFunc {
	count := 0
	return func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		count++
		if count <= n {
			return "", context.DeadlineExceeded
		}
		return "finally", nil
	}
}

func dialAlice(t *testing.T, h *harness) *gram.Client {
	t.Helper()
	cl, err := gram.Dial(h.addr, h.alice, h.trust)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func waitDone(t *testing.T, cl *gram.Client, contact string) gram.StatusReply {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for {
		st, err := cl.WaitTerminal(ctx, contact, 5*time.Millisecond)
		if err != nil {
			t.Fatalf("WaitTerminal: %v", err)
		}
		// A FAILED marked "(will restart)" is the state between two
		// attempts of a restartable job, not its outcome.
		if !strings.Contains(st.Error, "will restart") {
			return st
		}
	}
}

func TestFigure1GRAMArchitecture(t *testing.T) {
	// E2: one submit/status cycle exercises all three tiers — the client
	// tier (this test), the middle tier (gatekeeper auth + job manager),
	// and the backend tier (local job execution).
	h := newHarness(t, nil)
	cl := dialAlice(t, h)

	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	contact, err := cl.Submit("&(executable=work)(arguments=x)(jobtype=func)")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !strings.HasPrefix(contact, "gram://") {
		t.Errorf("contact = %q", contact)
	}
	st := waitDone(t, cl, contact)
	if st.State != job.Done || st.Stdout != "worked:x" {
		t.Errorf("status = %+v", st)
	}
	// The gatekeeper mapped alice into her local security context; the
	// log shows the submission attributed to both identities.
	recs, err := logging.Replay(bytes.NewReader(h.logBuf.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, r := range recs {
		if r.Kind == logging.KindSubmit && r.Owner == "alice" && r.Identity == "/O=Grid/CN=alice" {
			found = true
		}
	}
	if !found {
		t.Error("submission not logged with gridmapped owner")
	}
}

func TestGatekeeperRejectsUnmappedIdentity(t *testing.T) {
	h := newHarness(t, nil)
	cl, err := gram.Dial(h.addr, h.mallory, h.trust)
	if err != nil {
		t.Fatalf("Dial (authn should succeed): %v", err)
	}
	defer cl.Close()
	// Authentication succeeded but the gridmap has no entry: the first
	// operation returns the gatekeeper error.
	if _, err := cl.Submit("&(executable=work)(jobtype=func)"); err == nil ||
		!strings.Contains(err.Error(), "gridmap") {
		t.Errorf("expected gridmap rejection, got %v", err)
	}
}

func TestGatekeeperRejectsUntrustedClient(t *testing.T) {
	h := newHarness(t, nil)
	evil, _ := gsi.NewCA("/O=Evil/CN=CA", time.Hour, time.Now())
	cred, _ := evil.IssueIdentity("/O=Evil/CN=x", time.Hour, time.Now())
	if _, err := gram.Dial(h.addr, cred, h.trust); err == nil {
		t.Error("untrusted client connected")
	}
}

func TestAuthorizationPolicyOnSubmit(t *testing.T) {
	policy := gsi.NewPolicy(gsi.Deny)
	policy.Add(gsi.Contract{Subject: "/O=Grid/CN=alice", Operation: gsi.OpInfoQuery, Effect: gsi.Allow})
	h := newHarness(t, policy)
	cl := dialAlice(t, h)
	if _, err := cl.Submit("&(executable=work)(jobtype=func)"); err == nil {
		t.Error("job submit allowed despite job-denying policy")
	}
}

func TestGRAMRejectsInfoQueries(t *testing.T) {
	// The two-protocol baseline: GRAM is jobs-only; information requires
	// the MDS service (Figure 2).
	h := newHarness(t, nil)
	cl := dialAlice(t, h)
	_, err := cl.Submit("&(info=all)")
	if err == nil || !strings.Contains(err.Error(), "MDS") {
		t.Errorf("expected jobs-only rejection, got %v", err)
	}
}

func TestStatusUnknownContact(t *testing.T) {
	h := newHarness(t, nil)
	cl := dialAlice(t, h)
	if _, err := cl.Status("gram://nowhere/1/1"); err == nil {
		t.Error("unknown contact status succeeded")
	}
}

func TestForkJobThroughService(t *testing.T) {
	h := newHarness(t, nil)
	cl := dialAlice(t, h)
	contact, err := cl.Submit(`&(executable=/bin/sh)(arguments=-c "echo $LOGNAME-was-here")` +
		`(environment=(LOGNAME $(LOGNAME)))`)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, cl, contact)
	if st.State != job.Done || !strings.Contains(st.Stdout, "alice-was-here") {
		t.Errorf("st = %+v (RSL variable substitution should inject LOGNAME)", st)
	}
}

func TestJobFailureReported(t *testing.T) {
	h := newHarness(t, nil)
	cl := dialAlice(t, h)
	contact, err := cl.Submit("&(executable=/bin/sh)(arguments=-c \"exit 7\")")
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, cl, contact)
	if st.State != job.Failed || st.ExitCode != 7 {
		t.Errorf("st = %+v", st)
	}
}

func TestJobRetryOnFailure(t *testing.T) {
	// E11: (restart=N) retries a failing job; the third attempt of
	// fail-n(2) succeeds.
	h := newHarness(t, nil)
	cl := dialAlice(t, h)
	contact, err := cl.Submit("&(executable=fail-n)(jobtype=func)(restart=2)")
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, cl, contact)
	if st.State != job.Done || st.Stdout != "finally" {
		t.Errorf("st = %+v", st)
	}
	if st.Restarts != 2 {
		t.Errorf("Restarts = %d, want 2", st.Restarts)
	}
}

func TestJobRetryBudgetExhausted(t *testing.T) {
	h := newHarness(t, nil)
	cl := dialAlice(t, h)
	contact, err := cl.Submit("&(executable=always-fail)(jobtype=func)(restart=2)")
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, cl, contact)
	if st.State != job.Failed {
		t.Errorf("st = %+v", st)
	}
	if st.Restarts != 2 {
		t.Errorf("Restarts = %d", st.Restarts)
	}
}

func TestTimeoutActions(t *testing.T) {
	// E16: (timeout=...)(action=cancel) kills the command;
	// (action=exception) fails the job while the command continues.
	h := newHarness(t, nil)
	cl := dialAlice(t, h)

	t.Run("cancel", func(t *testing.T) {
		contact, err := cl.Submit("&(executable=slow)(jobtype=func)(timeout=100)(action=cancel)")
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		st := waitDone(t, cl, contact)
		if st.State != job.Failed || !strings.Contains(st.Error, "timeout") {
			t.Errorf("st = %+v", st)
		}
		if time.Since(start) > 5*time.Second {
			t.Error("cancel action did not terminate promptly")
		}
	})

	t.Run("exception", func(t *testing.T) {
		contact, err := cl.Submit("&(executable=slow)(jobtype=func)(timeout=100)(action=exception)")
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		st := waitDone(t, cl, contact)
		if st.State != job.Failed || !strings.Contains(st.Error, "execution continues") {
			t.Errorf("st = %+v", st)
		}
		if time.Since(start) > 5*time.Second {
			t.Error("exception action did not report promptly")
		}
	})
}

func TestCancelJob(t *testing.T) {
	h := newHarness(t, nil)
	cl := dialAlice(t, h)
	contact, err := cl.Submit("&(executable=slow)(jobtype=func)")
	if err != nil {
		t.Fatal(err)
	}
	// Give the manager a moment to reach ACTIVE.
	time.Sleep(30 * time.Millisecond)
	if err := cl.Cancel(contact); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	st := waitDone(t, cl, contact)
	if st.State != job.Failed || !strings.Contains(st.Error, "cancel") {
		t.Errorf("st = %+v", st)
	}
	// Cancelling a terminal job errors.
	if err := cl.Cancel(contact); err == nil {
		t.Error("second cancel succeeded")
	}
}

func TestSuspendResumeOverWire(t *testing.T) {
	// The GRAM SUSPENDED state driven by SIGNAL: a forked job is stopped
	// with SIGSTOP, observed as SUSPENDED, resumed, and completes.
	h := newHarness(t, nil)
	cl := dialAlice(t, h)
	contact, err := cl.Submit(`&(executable=/bin/sh)(arguments=-c "sleep 0.2; echo finished")`)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until ACTIVE.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := cl.Status(contact)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == job.Active {
			break
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job never ACTIVE: %s", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cl.Signal(contact, "suspend"); err != nil {
		t.Fatalf("suspend: %v", err)
	}
	st, err := cl.Status(contact)
	if err != nil || st.State != job.Suspended {
		t.Fatalf("state after suspend = %s (%v)", st.State, err)
	}
	// While suspended the job makes no progress well past its runtime.
	time.Sleep(400 * time.Millisecond)
	st, err = cl.Status(contact)
	if err != nil || st.State != job.Suspended {
		t.Fatalf("suspended job advanced: %s (%v)", st.State, err)
	}
	// Double-suspend is rejected.
	if err := cl.Signal(contact, "suspend"); err == nil {
		t.Error("double suspend succeeded")
	}
	if err := cl.Signal(contact, "resume"); err != nil {
		t.Fatalf("resume: %v", err)
	}
	final := waitDone(t, cl, contact)
	if final.State != job.Done || !strings.Contains(final.Stdout, "finished") {
		t.Errorf("final = %+v", final)
	}
	// Signals on terminal jobs fail.
	if err := cl.Signal(contact, "resume"); err == nil {
		t.Error("resume of finished job succeeded")
	}
	if err := cl.Signal(contact, "sigterm"); err == nil {
		t.Error("unknown signal accepted")
	}
}

func TestSuspendUnsupportedBackend(t *testing.T) {
	h := newHarness(t, nil)
	cl := dialAlice(t, h)
	contact, err := cl.Submit("&(executable=slow)(jobtype=func)")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := cl.Signal(contact, "suspend"); err == nil ||
		!strings.Contains(err.Error(), "does not support") {
		t.Errorf("func-backend suspend: %v", err)
	}
	_ = cl.Cancel(contact)
}

func TestCallbackNotification(t *testing.T) {
	// Figure 1's event-notification path: the service pushes state
	// changes to the client's callback listener.
	h := newHarness(t, nil)
	cl := dialAlice(t, h)
	listener, err := gram.NewCallbackListener()
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()

	contact, err := cl.Submit("&(executable=work)(jobtype=func)(callback=" + listener.Contact() + ")")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, cl, contact)

	var states []job.State
	timeout := time.After(5 * time.Second)
	for len(states) < 3 {
		select {
		case ev := <-listener.Events():
			if ev.Contact != contact {
				t.Errorf("event for wrong contact %q", ev.Contact)
			}
			states = append(states, ev.State)
		case <-timeout:
			t.Fatalf("only %d events received: %v", len(states), states)
		}
	}
	if states[0] != job.Pending || states[1] != job.Active || states[2] != job.Done {
		t.Errorf("callback states = %v", states)
	}
}

func TestCountRunsMultipleInstances(t *testing.T) {
	h := newHarness(t, nil)
	cl := dialAlice(t, h)
	contact, err := cl.Submit("&(executable=/bin/echo)(arguments=inst)(count=3)")
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, cl, contact)
	if st.State != job.Done {
		t.Fatalf("st = %+v", st)
	}
	if got := strings.Count(st.Stdout, "inst"); got != 3 {
		t.Errorf("instances = %d, want 3 (stdout %q)", got, st.Stdout)
	}
}

func TestMultipleClientsShareService(t *testing.T) {
	h := newHarness(t, nil)
	const n = 4
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			cl, err := gram.Dial(h.addr, h.alice, h.trust)
			if err != nil {
				done <- err
				return
			}
			defer cl.Close()
			contact, err := cl.Submit("&(executable=work)(jobtype=func)")
			if err != nil {
				done <- err
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			st, err := cl.WaitTerminal(ctx, contact, 5*time.Millisecond)
			if err == nil && st.State != job.Done {
				err = context.DeadlineExceeded
			}
			done <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	if h.svc.AcceptedConns() != n {
		t.Errorf("AcceptedConns = %d", h.svc.AcceptedConns())
	}
}

func TestMaxWallTime(t *testing.T) {
	h := newHarness(t, nil)
	cl := dialAlice(t, h)
	contact, err := cl.Submit("&(executable=slow)(jobtype=func)(maxtime=2ms)")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	st := waitDone(t, cl, contact)
	if st.State != job.Failed {
		t.Errorf("st = %+v", st)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("maxtime not enforced promptly")
	}
}

func TestSignalFromActiveCallback(t *testing.T) {
	// ACTIVE means signalable: a SIGNAL issued from inside the ACTIVE
	// notification itself — the tightest a client can react — must find
	// the job's backend handle registered and its process started.
	var m *gram.Manager
	suspended := make(chan error, 1)
	m = gram.NewManager(gram.ManagerConfig{
		Table:    job.NewTable("127.0.0.1:0"),
		Backends: gram.Backends{Exec: &scheduler.Fork{}},
		Notify: gram.NotifierFunc(func(_ string, ev job.Event) {
			if ev.State == job.Active {
				suspended <- m.Signal(ev.Contact, "suspend")
			}
		}),
	})
	req, err := xrsl.DecodeOne(`&(executable=/bin/sh)(arguments=-c "sleep 0.05; echo finished")(callback=127.0.0.1:1)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	contact, err := m.Submit(context.Background(), req.Job, job.Record{Owner: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-suspended:
		if err != nil {
			t.Fatalf("suspend from ACTIVE callback: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ACTIVE never notified")
	}
	if rec, err := m.Table().Get(contact); err != nil || rec.State != job.Suspended {
		t.Fatalf("state after suspend = %s (%v)", rec.State, err)
	}
	if err := m.Signal(contact, "resume"); err != nil {
		t.Fatalf("resume: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec, err := m.Table().Get(contact)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State.Terminal() {
			if rec.State != job.Done || !strings.Contains(rec.Stdout, "finished") {
				t.Errorf("final = %+v", rec)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", rec.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

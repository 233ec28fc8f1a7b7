// Kill-and-restart suite: the durability acceptance scenario for the
// write-ahead journal. A gatekeeper with a state directory accepts a batch
// of jobs, is killed mid-flight with half of them still running, and a
// second gatekeeper on the same directory replays the journal: terminal
// jobs answer STATUS with their recorded output under their original
// contacts, interrupted jobs run to completion (observed through both
// STATUS and the original callback contact), and jobs whose backend no
// longer exists come back FAILED with a recovery annotation instead of
// vanishing.
package integration_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"infogram/internal/core"
	"infogram/internal/gram"
	"infogram/internal/job"
	"infogram/internal/journal"
	"infogram/internal/scheduler"
	"infogram/internal/telemetry"
)

// recoveryBackends builds the scheduler tier for one gatekeeper
// generation: "noop" completes instantly, "block" parks until release is
// closed (standing in for a long-running job the crash interrupts). The
// queue backend is optional so the second generation can come up without
// it and exercise the cannot-re-attach path.
func recoveryBackends(release <-chan struct{}, withQueue bool) (gram.Backends, func()) {
	fn := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
	fn.RegisterFunc("noop", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		return "done", nil
	})
	fn.RegisterFunc("block", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		select {
		case <-release:
			return "released", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	})
	b := gram.Backends{Func: fn, Exec: &scheduler.Fork{}}
	cleanup := func() {}
	if withQueue {
		q := scheduler.NewQueue(scheduler.QueueConfig{Name: "recovery", Slots: 2, Executor: fn})
		b.Queue = q
		cleanup = q.Close
	}
	return b, cleanup
}

func TestJournalKillAndRestartRecovery(t *testing.T) {
	d := newDeployment(t)
	stateDir := t.TempDir()

	// One callback listener outlives both gatekeeper generations, exactly
	// like a real client would: the callback contact is baked into each
	// job's xRSL, so the recovered service notifies the same address.
	listener, err := gram.NewCallbackListener()
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()

	// --- Generation A: accept the batch, then die mid-flight. ---
	jnlA, _, err := journal.Open(journal.Options{
		Dir: stateDir,
		// Tiny rotation/snapshot thresholds so the live service exercises
		// rotation, snapshotting, and compaction before the crash.
		SegmentBytes:  1024,
		SnapshotEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := jnlA.Table().Len(); n != 0 {
		t.Fatalf("fresh state dir recovered %d jobs", n)
	}
	releaseA := make(chan struct{})
	defer close(releaseA) // unblock generation A's orphaned goroutines
	backendsA, cleanupA := recoveryBackends(releaseA, true)
	defer cleanupA()
	svcA := core.NewService(core.Config{
		ResourceName: "recovery-site",
		Credential:   d.svcCred, Trust: d.trust, Gridmap: d.gridmap,
		Registry: d.reg,
		Backends: backendsA,
		Journal:  jnlA,
	})
	addrA, err := svcA.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	clA, err := core.Dial(addrA, d.user, d.trust)
	if err != nil {
		t.Fatal(err)
	}

	submit := func(cl *core.Client, spec string) string {
		t.Helper()
		contact, err := cl.Submit(spec)
		if err != nil {
			t.Fatalf("submit %q: %v", spec, err)
		}
		return contact
	}
	cb := "(callback=" + listener.Contact() + ")"

	// Three jobs finish before the crash...
	var doneContacts []string
	for i := 0; i < 3; i++ {
		doneContacts = append(doneContacts,
			submit(clA, fmt.Sprintf("&(executable=noop)(jobtype=func)(arguments=%d)%s", i, cb)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range doneContacts {
		if st, err := clA.WaitTerminal(ctx, c, 2*time.Millisecond); err != nil || st.State != job.Done {
			t.Fatalf("pre-crash job %s: %+v %v", c, st, err)
		}
	}

	// ...two func jobs and one queue job are mid-flight when it hits. A
	// restart budget on one of them proves resumption re-runs the
	// interrupted attempt instead of granting a fresh budget.
	blockContacts := []string{
		submit(clA, "&(executable=block)(jobtype=func)"+cb),
		submit(clA, "&(executable=block)(jobtype=func)(restart=2)"+cb),
	}
	queueContact := submit(clA, "&(executable=block)(jobtype=queue)"+cb)
	inflight := append(append([]string{}, blockContacts...), queueContact)

	// The journal appends an event strictly before the callback fires, so
	// an ACTIVE notification proves the ACTIVE record is on disk.
	waitActive := func(want []string) {
		t.Helper()
		pending := make(map[string]bool, len(want))
		for _, c := range want {
			pending[c] = true
		}
		timeout := time.After(10 * time.Second)
		for len(pending) > 0 {
			select {
			case ev := <-listener.Events():
				if ev.State == job.Active {
					delete(pending, ev.Contact)
				}
			case <-timeout:
				t.Fatalf("jobs never reached ACTIVE: %v", pending)
			}
		}
	}
	waitActive(inflight)

	// Hard kill: no graceful drain, no journal close ceremony beyond what
	// a dying process gets, and a torn half-record at the journal tail —
	// the on-disk signature of a crash mid-append.
	clA.Close()
	svcA.Close()
	segs, err := filepath.Glob(filepath.Join(stateDir, "journal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments in %s: %v", stateDir, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x42, 0x42, 0x42}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// --- Generation B: same state directory, no queue backend. ---
	telB := telemetry.NewRegistry()
	jnlB, recB, err := journal.Open(journal.Options{Dir: stateDir, Telemetry: telB})
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	if !recB.TornTail {
		t.Error("torn tail record was not detected")
	}
	if got := jnlB.Table().Len(); got != 6 {
		t.Fatalf("replayed %d jobs; want 6", got)
	}
	releaseB := make(chan struct{})
	close(releaseB) // generation B's "block" completes immediately
	backendsB, _ := recoveryBackends(releaseB, false)
	svcB := core.NewService(core.Config{
		ResourceName: "recovery-site",
		Credential:   d.svcCred, Trust: d.trust, Gridmap: d.gridmap,
		Registry:  d.reg,
		Backends:  backendsB,
		Journal:   jnlB,
		Telemetry: telB,
	})
	addrB, err := svcB.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svcB.Close()
	// The func jobs are resumed; the queue job, whose backend is gone,
	// is failed at recovery and reported as such, not as resumed.
	resumed, failed, err := svcB.RecoverJournal(recB)
	if err != nil {
		t.Fatalf("RecoverJournal: %v", err)
	}
	sort.Strings(resumed)
	wantResumed := append([]string{}, blockContacts...)
	sort.Strings(wantResumed)
	if !slices.Equal(resumed, wantResumed) || len(failed) != 1 || failed[0] != queueContact {
		t.Fatalf("resumed %v, failed %v; want the func jobs %v resumed and the queue job %s failed",
			resumed, failed, blockContacts, queueContact)
	}
	recoveredCounter := telB.Counter("infogram_journal_recovered_jobs_total",
		"non-terminal jobs replayed from the journal and resubmitted at boot")
	if got := recoveredCounter.Value(); got != int64(len(blockContacts)) {
		t.Errorf("infogram_journal_recovered_jobs_total = %d; want %d", got, len(blockContacts))
	}

	clB, err := core.Dial(addrB, d.user, d.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()

	// Terminal jobs answer STATUS under their ORIGINAL contacts with the
	// output recorded before the crash.
	for _, c := range doneContacts {
		st, err := clB.Status(c)
		if err != nil {
			t.Fatalf("pre-crash contact %s lost: %v", c, err)
		}
		if st.State != job.Done || st.Stdout != "done" {
			t.Errorf("restored job %s = %+v; want DONE with recorded stdout", c, st)
		}
	}

	// Interrupted func jobs run to completion on the new gatekeeper.
	for _, c := range blockContacts {
		st, err := clB.WaitTerminal(ctx, c, 2*time.Millisecond)
		if err != nil {
			t.Fatalf("resumed job %s: %v", c, err)
		}
		if st.State != job.Done || st.Stdout != "released" {
			t.Errorf("resumed job %s = %+v; want DONE from the re-run attempt", c, st)
		}
	}

	// The queue job's backend is gone: FAILED with the recovery
	// annotation, not silently dropped.
	st, err := clB.WaitTerminal(ctx, queueContact, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("orphaned queue job %s: %v", queueContact, err)
	}
	if st.State != job.Failed || !strings.Contains(st.Error, "recovery:") {
		t.Errorf("orphaned queue job = %+v; want FAILED with a recovery: annotation", st)
	}

	// Every in-flight job's terminal event reached the original callback
	// contact, delivered by the recovered service.
	terminal := make(map[string]job.State)
	timeout := time.After(10 * time.Second)
	for len(terminal) < len(inflight) {
		select {
		case ev := <-listener.Events():
			if ev.State.Terminal() {
				terminal[ev.Contact] = ev.State
			}
		case <-timeout:
			t.Fatalf("terminal callbacks after recovery: got %v", terminal)
		}
	}
	for _, c := range blockContacts {
		if terminal[c] != job.Done {
			t.Errorf("callback for resumed job %s = %v; want DONE", c, terminal[c])
		}
	}
	if terminal[queueContact] != job.Failed {
		t.Errorf("callback for orphaned queue job = %v; want FAILED", terminal[queueContact])
	}
}

// A journaled job interrupted on its LAST attempt re-runs that attempt
// after recovery rather than being abandoned: restart=1 means two
// attempts total, the crash lands mid-attempt-2, and the recovered
// service still drives the job to DONE.
func TestJournalRecoveryHonorsRestartBudget(t *testing.T) {
	d := newDeployment(t)
	stateDir := t.TempDir()

	jnlA, _, err := journal.Open(journal.Options{Dir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	fnA := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
	attempts := make(chan int, 16)
	tries := 0
	block := make(chan struct{})
	defer close(block)
	fnA.RegisterFunc("flaky", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		tries++
		attempts <- tries
		if tries == 1 {
			return "", fmt.Errorf("transient fault")
		}
		<-block // second (= final) attempt is the one the crash interrupts
		return "", ctx.Err()
	})
	svcA := core.NewService(core.Config{
		ResourceName: "restart-site",
		Credential:   d.svcCred, Trust: d.trust, Gridmap: d.gridmap,
		Registry: d.reg,
		Backends: gram.Backends{Func: fnA},
		Journal:  jnlA,
	})
	addrA, err := svcA.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	clA, err := core.Dial(addrA, d.user, d.trust)
	if err != nil {
		t.Fatal(err)
	}
	contact, err := clA.Submit("&(executable=flaky)(jobtype=func)(restart=1)")
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the second attempt to start, so the journaled restart
	// count is 1 — the full budget — when the crash lands.
	timeout := time.After(10 * time.Second)
	for got := 0; got < 2; {
		select {
		case got = <-attempts:
		case <-timeout:
			t.Fatalf("second attempt never started (last=%d)", got)
		}
	}
	// The restart-counter transition journals before the backend runs the
	// attempt, so reaching the function body proves the record is on disk.
	clA.Close()
	svcA.Close()

	jnlB, recB, err := journal.Open(journal.Options{Dir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	if jobs := jnlB.Table().List(); len(jobs) != 1 || jobs[0].Restarts != 1 {
		t.Fatalf("replayed %+v; want the one job at restart count 1", jobs)
	}
	fnB := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
	ran := make(chan struct{}, 16)
	fnB.RegisterFunc("flaky", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		ran <- struct{}{}
		return "recovered-run", nil
	})
	svcB := core.NewService(core.Config{
		ResourceName: "restart-site",
		Credential:   d.svcCred, Trust: d.trust, Gridmap: d.gridmap,
		Registry: d.reg,
		Backends: gram.Backends{Func: fnB},
		Journal:  jnlB,
	})
	addrB, err := svcB.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svcB.Close()
	if _, _, err := svcB.RecoverJournal(recB); err != nil {
		t.Fatal(err)
	}
	clB, err := core.Dial(addrB, d.user, d.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := clB.WaitTerminal(ctx, contact, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != job.Done || st.Stdout != "recovered-run" {
		t.Fatalf("recovered job = %+v; want DONE from the re-run final attempt", st)
	}
	if st.Restarts != 1 {
		t.Errorf("restarts = %d; the re-run must consume the journaled budget, not reset it", st.Restarts)
	}
	// Exactly one re-run: the budget was exhausted, so no third attempt.
	select {
	case <-ran:
	default:
		t.Fatal("generation B never ran the job")
	}
	select {
	case <-ran:
		t.Fatal("recovery granted an extra attempt beyond the restart budget")
	case <-time.After(100 * time.Millisecond):
	}
}

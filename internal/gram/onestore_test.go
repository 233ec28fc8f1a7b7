package gram_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"infogram/internal/faultinject"
	"infogram/internal/gram"
	"infogram/internal/job"
	"infogram/internal/journal"
	"infogram/internal/rsl"
	"infogram/internal/scheduler"
	"infogram/internal/telemetry"
)

// A SUBMIT the journal refuses never enters the table, so no snapshot and
// no replication cut taken meanwhile holds it, and no restart revives it.
// Snapshots and cuts are forced throughout, from another goroutine.
func TestRefusedSubmitIsInNoCopy(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	dir := t.TempDir()
	r := newRetentionRig(t, dir, scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{}), nil)

	var mu sync.Mutex
	inCut := make(map[string]bool)
	stop := make(chan struct{})
	forced := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				forced <- nil
				return
			default:
			}
			if err := r.jnl.Snapshot(); err != nil {
				forced <- err
				return
			}
			tap, cut, err := r.jnl.Subscribe(16)
			if err != nil {
				forced <- err
				return
			}
			r.jnl.Unsubscribe(tap)
			mu.Lock()
			for _, e := range cut {
				inCut[e.Contact] = true
			}
			mu.Unlock()
		}
	}()

	var refused []string
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			r.wait(r.submit(r.noop, noopSpec))
			continue
		}
		c := fmt.Sprintf("gram://site:1/%d/1", 1000+i)
		faultinject.Arm(faultinject.JournalAppend, faultinject.Action{Err: errors.New("disk gone"), Count: 1})
		if _, err := r.m.Submit(context.Background(), r.noop, job.Record{Contact: c, Spec: noopSpec}); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("submit with the append failpoint armed: %v", err)
		}
		refused = append(refused, c)
	}
	close(stop)
	if err := <-forced; err != nil {
		t.Fatal(err)
	}
	if err := r.jnl.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.jnl.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if n := reopened.Table().Len(); n != 20 {
		t.Errorf("reopened journal holds %d jobs; want the 20 accepted", n)
	}
	for _, c := range refused {
		if _, err := r.table.Get(c); err == nil {
			t.Errorf("refused %s is in the table", c)
		}
		if inCut[c] {
			t.Errorf("refused %s is in a replication cut", c)
		}
		if strings.Contains(string(snap), c) {
			t.Errorf("refused %s is in the snapshot", c)
		}
		if _, err := reopened.Table().Get(c); err == nil {
			t.Errorf("refused %s came back after a restart", c)
		}
	}
}

// Resumed jobs finish, and recovery fails jobs it cannot resume, while
// RecoverJournal is still looping; each of those appends may snapshot,
// and snapshots here are also forced at every step of the loop and at
// every event. The table held every replayed job before the first of
// them, so the next recovery loses none.
func TestRecoverySnapshotsLoseNoJob(t *testing.T) {
	const resumable, broken, finished = 60, 10, 30
	dir := t.TempDir()
	jnl, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var contacts []string
	add := func(spec string, done bool) {
		c := fmt.Sprintf("gram://site:1/%d/1", len(contacts)+1)
		contacts = append(contacts, c)
		if err := jnl.Append(ctx, journal.Entry{Kind: journal.KindSubmit, Time: 1, Contact: c, Spec: spec, Owner: "alice"}); err != nil {
			t.Fatal(err)
		}
		if done {
			exit := 0
			if err := jnl.Append(ctx, journal.Entry{Kind: journal.KindState, Time: 2, Contact: c, State: "DONE", ExitCode: &exit}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < resumable+broken+finished; i++ {
		switch {
		case i%10 == 9:
			add("&(executable=", false)
		case i%10 >= 6:
			add(noopSpec, true)
		default:
			add(noopSpec, false)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	jnl, rec, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	if len(rec.Unfinished) != resumable+broken {
		t.Fatalf("replay found %d unfinished jobs; want %d", len(rec.Unfinished), resumable+broken)
	}
	table := gram.ServedTable(jnl, "site:1")
	fn := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
	fn.RegisterFunc("noop", func(context.Context, *scheduler.Sandbox, []string, string) (string, error) {
		return "ok", nil
	})
	snapshot := func() {
		if err := jnl.Snapshot(); err != nil && !errors.Is(err, journal.ErrClosed) {
			t.Error(err)
		}
	}
	m := gram.NewManager(gram.ManagerConfig{
		Backends: gram.Backends{Func: fn},
		Journal:  jnl,
		Notify:   gram.NotifierFunc(func(string, job.Event) { snapshot() }),
	})
	resumed, _, err := m.RecoverJournal(rec, func(string) rsl.Env { snapshot(); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != resumable {
		t.Fatalf("resumed %d jobs; want %d", len(resumed), resumable)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, c := range rec.Unfinished {
		for {
			if got, err := table.Get(c); err == nil && got.Finished() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished", c)
			}
			time.Sleep(time.Millisecond)
		}
	}
	snapshot()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	again, rec2, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if len(rec2.Unfinished) != 0 {
		t.Errorf("after recovery ran them all, %d jobs read unfinished", len(rec2.Unfinished))
	}
	for i, c := range contacts {
		got, err := again.Table().Get(c)
		want := job.Done
		if i%10 == 9 {
			want = job.Failed
		}
		if err != nil || got.State != want {
			t.Errorf("job %s after the next recovery: %+v (%v); want %s", c, got, err, want)
		}
	}
}

// A job journaled DONE, then SUSPENDED by a record made before it
// finished, is finished: recovery does not run it again.
func TestStaleRecordIsNotResumed(t *testing.T) {
	dir := t.TempDir()
	jnl, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const c = "gram://site:1/1/1"
	exit := 0
	for _, e := range []journal.Entry{
		{Kind: journal.KindSubmit, Time: 1, Contact: c, Spec: "&(executable=noop)(jobtype=func)(restart=1)"},
		{Kind: journal.KindState, Time: 3, Contact: c, State: "DONE", ExitCode: &exit, Restarts: 1},
		{Kind: journal.KindState, Time: 2, Contact: c, State: "SUSPENDED", Restarts: 1},
	} {
		if err := jnl.Append(context.Background(), e); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	jnl, rec, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	fn := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
	ran := make(chan struct{}, 1)
	fn.RegisterFunc("noop", func(context.Context, *scheduler.Sandbox, []string, string) (string, error) {
		ran <- struct{}{}
		return "again", nil
	})
	m := gram.NewManager(gram.ManagerConfig{Backends: gram.Backends{Func: fn}, Journal: jnl})
	resumed, _, err := m.RecoverJournal(rec, func(string) rsl.Env { return nil })
	if err != nil || len(resumed) != 0 {
		t.Fatalf("RecoverJournal = %v, %v; want nothing resumed", resumed, err)
	}
	select {
	case <-ran:
		t.Fatal("recovery ran a finished job again")
	case <-time.After(50 * time.Millisecond):
	}
	if got, err := m.Table().Get(c); err != nil || got.State != job.Done {
		t.Errorf("job after recovery = %+v (%v); want DONE", got, err)
	}
}

// A submission under a contact the table already holds is refused before
// anything is journaled: the submission record would otherwise fold into
// the job that holds the contact.
func TestSubmitRefusesDuplicateContact(t *testing.T) {
	r := newRetentionRig(t, t.TempDir(), scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{}), nil)
	const c = "gram://site:1/7/1"
	if _, err := r.m.Submit(context.Background(), r.noop, job.Record{Contact: c, Spec: noopSpec, Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	r.wait(c)
	_, err := r.m.Submit(context.Background(), r.noop, job.Record{Contact: c, Spec: "&(executable=other)", Owner: "mallory"})
	if err == nil || !strings.Contains(err.Error(), "duplicate contact") {
		t.Fatalf("second submission under %s = %v; want a duplicate-contact error", c, err)
	}
	if got, _ := r.table.Get(c); got.Owner != "alice" || got.Spec != noopSpec || got.State != job.Done {
		t.Errorf("the first job became %+v", got)
	}
}

// Recovery reports what it did: a journaled job whose backend is absent
// in the recovering process is failed, listed among the failed and not
// the resumed, and left out of the recovered-jobs counter, while a job
// whose backend exists is resumed and counted.
func TestRecoveryWithoutBackendIsFailedNotResumed(t *testing.T) {
	dir := t.TempDir()
	jnl, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const queued, funcJob = "gram://site:1/1/1", "gram://site:1/2/1"
	for _, e := range []journal.Entry{
		{Kind: journal.KindSubmit, Time: 1, Contact: queued, Spec: "&(executable=noop)(jobtype=queue)"},
		{Kind: journal.KindState, Time: 2, Contact: queued, State: "PENDING"},
		{Kind: journal.KindSubmit, Time: 3, Contact: funcJob, Spec: "&(executable=noop)(jobtype=func)"},
		{Kind: journal.KindState, Time: 4, Contact: funcJob, State: "PENDING"},
	} {
		if err := jnl.Append(context.Background(), e); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	jnl, rec, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	fn := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
	fn.RegisterFunc("noop", func(context.Context, *scheduler.Sandbox, []string, string) (string, error) { return "", nil })
	m := gram.NewManager(gram.ManagerConfig{Backends: gram.Backends{Func: fn}, Journal: jnl})
	resumed, failed, err := m.RecoverJournal(rec, func(string) rsl.Env { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || resumed[0] != funcJob || len(failed) != 1 || failed[0] != queued {
		t.Fatalf("RecoverJournal resumed %v, failed %v; want [%s], [%s]", resumed, failed, funcJob, queued)
	}
	if got, err := m.Table().Get(queued); err != nil || got.State != job.Failed || !strings.Contains(got.Error, "recovery: ") {
		t.Errorf("queue job after recovery = %+v (%v); want FAILED with a recovery error", got, err)
	}
	counted := int64(-1)
	for _, p := range reg.Snapshot() {
		if p.Name == "infogram_journal_recovered_jobs_total" {
			counted = p.Value
		}
	}
	if counted != 1 {
		t.Errorf("recovered-jobs counter = %d, want 1", counted)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if got, _ := m.Table().Get(funcJob); got.State == job.Done {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("resumed job = %+v; want DONE", got)
		}
	}
}

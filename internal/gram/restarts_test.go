package gram_test

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"infogram/internal/gram"
	"infogram/internal/job"
	"infogram/internal/journal"
	"infogram/internal/rsl"
	"infogram/internal/scheduler"
)

// stepBackend runs tasks whose handles can be suspended. Its first fails
// tasks exit 1 at once; later ones run until release closes.
type stepBackend struct {
	fail    int
	release chan struct{}

	mu   sync.Mutex
	runs int
}

func (b *stepBackend) Name() string { return "step" }

func (b *stepBackend) Submit(context.Context, scheduler.Task) (scheduler.Handle, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.runs++
	return &stepHandle{fail: b.runs <= b.fail, release: b.release}, nil
}

func (b *stepBackend) Runs() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.runs
}

type stepHandle struct {
	fail    bool
	release chan struct{}
}

func (h *stepHandle) Wait(ctx context.Context) (scheduler.Result, error) {
	if h.fail {
		return scheduler.Result{ExitCode: 1}, nil
	}
	select {
	case <-h.release:
		return scheduler.Result{Stdout: "ok"}, nil
	case <-ctx.Done():
		return scheduler.Result{}, ctx.Err()
	}
}

func (h *stepHandle) Cancel()        {}
func (h *stepHandle) Suspend() error { return nil }
func (h *stepHandle) Resume() error  { return nil }

// A job suspended and resumed on its second attempt keeps its restart
// count: in the table, in the records the journal ships to a follower and
// the follower's table, and after a recovery, which resumes the second
// attempt, the job's last, rather than granting the spent restart again.
func TestSuspendOnSecondAttemptKeepsRestarts(t *testing.T) {
	const spec = "&(executable=step)(jobtype=func)(restart=1)"
	dir := t.TempDir()
	jnl, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	table := gram.ServedTable(jnl, "site:1")
	tap, cut, err := jnl.Subscribe(64)
	if err != nil {
		t.Fatal(err)
	}
	follower, _, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	var shipped []journal.Entry
	follow := func() {
		t.Helper()
		for {
			select {
			case raw := <-tap.Records():
				var e journal.Entry
				if err := json.Unmarshal(raw, &e); err != nil {
					t.Fatal(err)
				}
				shipped = append(shipped, e)
				if err := follower.Append(context.Background(), e); err != nil {
					t.Fatal(err)
				}
			default:
				return
			}
		}
	}
	for _, e := range cut {
		if err := follower.Append(context.Background(), e); err != nil {
			t.Fatal(err)
		}
	}

	first := &stepBackend{fail: 1, release: make(chan struct{})}
	m := gram.NewManager(gram.ManagerConfig{Backends: gram.Backends{Func: first}, Journal: jnl})
	c, err := m.Submit(context.Background(), decodeJob(t, spec), job.Record{Spec: spec, Owner: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if rec, _ := table.Get(c); rec.State == job.Active && rec.Restarts == 1 {
			break
		}
		if time.Now().After(deadline) {
			rec, _ := table.Get(c)
			t.Fatalf("job never reached its second attempt: %+v", rec)
		}
		time.Sleep(time.Millisecond)
	}
	for _, step := range []struct {
		signal string
		want   job.State
	}{{"suspend", job.Suspended}, {"resume", job.Active}} {
		if err := m.Signal(c, step.signal); err != nil {
			t.Fatalf("%s: %v", step.signal, err)
		}
		follow()
		for name, tbl := range map[string]*job.Table{"table": table, "follower": follower.Table()} {
			if rec, err := tbl.Get(c); err != nil || rec.State != step.want || rec.Restarts != 1 {
				t.Errorf("%s after %s: %+v (%v); want %s with restarts 1", name, step.signal, rec, err, step.want)
			}
		}
		if last := shipped[len(shipped)-1]; last.State != step.want.String() || last.Restarts != 1 {
			t.Errorf("journal record of %s: %+v; want %s with restarts 1", step.signal, last, step.want)
		}
	}

	// Crash: the journal stops taking records while the attempt runs.
	jnl.Unsubscribe(tap)
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	close(first.release)
	reopened, rec, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got, err := reopened.Table().Get(c); err != nil || got.State != job.Active || got.Restarts != 1 {
		t.Fatalf("journal replays %+v (%v); want ACTIVE with restarts 1", got, err)
	}
	again := &stepBackend{fail: 2}
	m2 := gram.NewManager(gram.ManagerConfig{Backends: gram.Backends{Func: again}, Journal: reopened})
	if _, _, err := m2.RecoverJournal(rec, func(string) rsl.Env { return nil }); err != nil {
		t.Fatal(err)
	}
	for {
		got, _ := m2.Table().Get(c)
		if got.Finished() {
			if got.State != job.Failed || got.Restarts != 1 || again.Runs() != 1 {
				t.Errorf("recovered job ended %+v after %d runs; want FAILED with restarts 1 after 1 run", got, again.Runs())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered job never finished: %+v", got)
		}
		time.Sleep(time.Millisecond)
	}
}

// RecoverJournal before Listen is an error: the manager that resumes the
// journal's jobs exists only once the service is bound to an address.
func TestRecoverBeforeListenIsAnError(t *testing.T) {
	dir := t.TempDir()
	jnl, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(context.Background(), journal.Entry{Kind: journal.KindSubmit, Time: 1, Contact: "gram://old.host:1/9/1", Spec: noopSpec}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	jnl, rec, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	svc := gram.NewService(gram.Config{Journal: jnl})
	if _, _, err := svc.RecoverJournal(rec); err == nil {
		t.Error("RecoverJournal before Listen succeeded; want an error")
	}
}

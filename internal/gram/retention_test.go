package gram_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"infogram/internal/gram"
	"infogram/internal/job"
	"infogram/internal/journal"
	"infogram/internal/rsl"
	"infogram/internal/scheduler"
	"infogram/internal/wire"
	"infogram/internal/xrsl"
)

// retentionRig is a journaled job manager over an in-process func backend.
// Every job carries a callback contact, so the rig learns of each finished
// job once its last record is journaled.
type retentionRig struct {
	t        *testing.T
	m        *gram.Manager
	table    *job.Table
	jnl      *journal.Journal
	noop     *xrsl.JobRequest
	finished chan string
}

const noopSpec = "&(executable=noop)(jobtype=func)(callback=127.0.0.1:1)"

func newRetentionRig(t *testing.T, dir string, fn *scheduler.Func, notify func(job.Event)) *retentionRig {
	t.Helper()
	fn.RegisterFunc("noop", func(context.Context, *scheduler.Sandbox, []string, string) (string, error) {
		return "ok", nil
	})
	jnl, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })
	r := &retentionRig{
		t:        t,
		table:    gram.ServedTable(jnl, "site:1"),
		jnl:      jnl,
		noop:     decodeJob(t, noopSpec),
		finished: make(chan string, 16),
	}
	r.m = gram.NewManager(gram.ManagerConfig{
		Backends: gram.Backends{Func: fn},
		Journal:  jnl,
		Notify: gram.NotifierFunc(func(_ string, ev job.Event) {
			if notify != nil {
				notify(ev)
			}
			if ev.State == job.Done || (ev.State == job.Failed && !strings.HasSuffix(ev.Error, "(will restart)")) {
				r.finished <- ev.Contact
			}
		}),
	})
	return r
}

func decodeJob(t *testing.T, spec string) *xrsl.JobRequest {
	t.Helper()
	req, err := xrsl.DecodeOne(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req.Job
}

// submit starts one job and returns its contact.
func (r *retentionRig) submit(req *xrsl.JobRequest, spec string) string {
	r.t.Helper()
	contact, err := r.m.Submit(context.Background(), req, job.Record{Spec: spec, Owner: "alice", Identity: "/O=Grid/CN=alice"})
	if err != nil {
		r.t.Fatal(err)
	}
	return contact
}

// wait blocks until contact's job is finished and journaled, and returns
// its record. Jobs must finish in the order they are waited for.
func (r *retentionRig) wait(contact string) job.Record {
	r.t.Helper()
	select {
	case c := <-r.finished:
		if c != contact {
			r.t.Fatalf("job %s finished while waiting for %s", c, contact)
		}
	case <-time.After(10 * time.Second):
		r.t.Fatalf("job %s never finished", contact)
	}
	rec, err := r.table.Get(contact)
	if err != nil {
		r.t.Fatal(err)
	}
	return rec
}

// runNoops runs n no-op jobs one after another, each to DONE, and returns
// their contacts in retirement order.
func (r *retentionRig) runNoops(n int) []string {
	r.t.Helper()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		c := r.submit(r.noop, noopSpec)
		r.wait(c)
		out = append(out, c)
	}
	return out
}

func contactSet(jobs []job.Record) []string {
	out := make([]string, 0, len(jobs))
	for _, js := range jobs {
		out = append(out, js.Contact)
	}
	sort.Strings(out)
	return out
}

// TestRetentionBoundsJobHistory runs 3·KeepTerminal jobs through a
// journaled manager. Whatever ran before, the table and the snapshot hold
// only the newest KeepTerminal finished jobs (3·N retirements end on a
// cut of the window), those still answer STATUS, an older contact answers
// "expired", and two recoveries in a row restore exactly the set the
// running service held.
func TestRetentionBoundsJobHistory(t *testing.T) {
	const n = job.KeepTerminal
	dir := t.TempDir()
	r := newRetentionRig(t, dir, scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{}), nil)
	contacts := r.runNoops(3 * n)

	live := 0
	for _, rec := range r.table.List() {
		if !rec.Finished() {
			live++
		}
	}
	if got := r.table.Len(); got > n+live {
		t.Errorf("table holds %d jobs after %d; want <= %d", got, 3*n, n+live)
	}
	if err := r.jnl.Snapshot(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap struct{ Jobs []json.RawMessage }
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	// A no-op job folds to ≈ 250 bytes of JSON.
	if len(snap.Jobs) > n+live || len(b) > (n+live+1)*512 {
		t.Errorf("snapshot holds %d jobs in %d bytes; want <= %d jobs", len(snap.Jobs), len(b), n+live)
	}

	for _, c := range contacts[len(contacts)-n:] {
		if resp, _ := r.m.Control(wire.Frame{Verb: gram.VerbStatus, Payload: []byte(c)}); resp.Verb != gram.VerbStatusOK {
			t.Fatalf("STATUS %s (one of the newest %d) = %s %q", c, n, resp.Verb, resp.Payload)
		}
	}
	oldest := contacts[0]
	if _, err := r.table.Get(oldest); !errors.Is(err, job.ErrExpired) {
		t.Errorf("Get(oldest) = %v; want ErrExpired", err)
	}
	resp, _ := r.m.Control(wire.Frame{Verb: gram.VerbStatus, Payload: []byte(oldest)})
	if want := `job: contact "` + oldest + `" expired`; resp.Verb != gram.VerbError || string(resp.Payload) != want {
		t.Errorf("STATUS oldest = %s %q; want ERROR %q", resp.Verb, resp.Payload, want)
	}

	leader := r.table.List()
	if err := r.jnl.Close(); err != nil {
		t.Fatal(err)
	}

	reopen := func() []job.Record {
		t.Helper()
		jnl, rec, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer jnl.Close()
		table := gram.ServedTable(jnl, "site:1")
		m := gram.NewManager(gram.ManagerConfig{Journal: jnl})
		if _, _, err := m.RecoverJournal(rec, func(string) rsl.Env { return nil }); err != nil {
			t.Fatal(err)
		}
		if _, err := table.Get(oldest); !errors.Is(err, job.ErrExpired) {
			t.Errorf("recovered Get(oldest) = %v; want ErrExpired", err)
		}
		if c, want := table.NewContact(time.Now()), fmt.Sprintf("gram://site:1/%d/", 3*n+1); !strings.HasPrefix(c, want) {
			t.Errorf("recovered table issues %s; want the job id after the last recovered one, %s…", c, want)
		}
		return table.List()
	}
	rec1 := reopen()
	if got, want := contactSet(rec1), contactSet(leader); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery holds %d jobs; the running service held %d", len(got), len(want))
	}
	rec2 := reopen()
	if !reflect.DeepEqual(rec1, rec2) {
		t.Fatal("second recovery differs from the first")
	}
}

// TestTableAndJournalAgreeWhenFinishesCross: two jobs finishing together
// can reach the journal in the opposite order to their finishing times.
// Here every pair does, with a cut of the window falling inside pairs.
// The table the service serves is the one the journal folds into, and a
// recovery folds the same records by the same finish-time key, so the
// running table and the recovered one forget the same jobs.
func TestTableAndJournalAgreeWhenFinishesCross(t *testing.T) {
	const n = job.KeepTerminal
	dir := t.TempDir()
	jnl, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	table := gram.ServedTable(jnl, "site:1")
	ctx := context.Background()
	base := time.Now()
	clock := 0
	start := func() (string, time.Time) {
		t.Helper()
		clock++
		at := base.Add(time.Duration(clock) * time.Millisecond)
		c := table.NewContact(at)
		if err := jnl.Append(ctx, journal.Entry{Kind: journal.KindSubmit, Time: at.UnixNano(), Contact: c, Spec: noopSpec}); err != nil {
			t.Fatal(err)
		}
		if _, err := jnl.Transition(ctx, journal.Entry{Kind: journal.KindState, Time: at.UnixNano(), Contact: c, State: job.Pending.String()}); err != nil {
			t.Fatal(err)
		}
		clock++
		return c, base.Add(time.Duration(clock) * time.Millisecond)
	}
	finish := func(c string, at time.Time) {
		t.Helper()
		exit := 0
		if _, err := jnl.Transition(ctx, journal.Entry{Kind: journal.KindState, Time: at.UnixNano(), Contact: c, State: job.Done.String(), ExitCode: &exit}); err != nil {
			t.Fatal(err)
		}
	}
	// One lone finish first, so the cuts at 2·N, 3·N and 4·N finishes
	// fall between the two halves of a pair.
	c, at := start()
	finish(c, at)
	for i := 0; i < 2*n; i++ {
		a, atA := start()
		b, atB := start()
		finish(b, atB)
		finish(a, atA)
	}
	tableSet := contactSet(table.List())
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	journalSet := contactSet(reopened.Table().List())
	if len(tableSet) > 2*n || !reflect.DeepEqual(tableSet, journalSet) {
		t.Fatalf("table holds %d jobs and the journal %d, not the same set", len(tableSet), len(journalSet))
	}
}

// TestRestartOutlivesTheWindow: a restart=2 job whose FAILED "(will
// restart)" records each sit through more than 2·KeepTerminal other
// retirements is never forgotten in between, so it ends DONE with both
// restarts counted — in the table, the journal, a follower fed through
// Subscribe, and a recovery.
func TestRestartOutlivesTheWindow(t *testing.T) {
	const n = job.KeepTerminal
	fn := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
	var attempts atomic.Int32
	fn.RegisterFunc("flaky", func(context.Context, *scheduler.Sandbox, []string, string) (string, error) {
		if attempts.Add(1) <= 2 {
			return "", errors.New("transient fault")
		}
		return "ok", nil
	})
	failed := make(chan struct{})
	release := make(chan struct{})
	notify := func(ev job.Event) {
		if ev.State == job.Failed {
			failed <- struct{}{}
			<-release
		}
	}
	dir := t.TempDir()
	r := newRetentionRig(t, dir, fn, notify)

	tap, cut, err := r.jnl.Subscribe(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	follower, _, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	ctx := context.Background()
	for _, e := range cut {
		if err := follower.Append(ctx, e); err != nil {
			t.Fatal(err)
		}
	}
	drained := make(chan error, 1)
	go func() {
		for payload := range tap.Records() {
			var e journal.Entry
			if err := json.Unmarshal(payload, &e); err != nil {
				drained <- err
				return
			}
			if err := follower.Append(ctx, e); err != nil {
				drained <- err
				return
			}
		}
		drained <- nil
	}()

	const spec = "&(executable=flaky)(jobtype=func)(restart=2)(callback=127.0.0.1:1)"
	flaky := r.submit(decodeJob(t, spec), spec)
	for round := 0; round < 2; round++ {
		select {
		case <-failed:
		case <-time.After(10 * time.Second):
			t.Fatalf("attempt %d never failed", round)
		}
		r.runNoops(2*n + 1)
		release <- struct{}{}
	}
	rec := r.wait(flaky)
	if rec.State != job.Done || rec.Restarts != 2 {
		t.Fatalf("table: %s after %d restarts; want DONE after 2", rec.State, rec.Restarts)
	}
	r.jnl.Unsubscribe(tap)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}

	check := func(where string, jobs []job.Record) {
		t.Helper()
		for _, js := range jobs {
			if js.Contact == flaky {
				if js.State != job.Done || js.Restarts != 2 {
					t.Errorf("%s: %s after %d restarts; want DONE after 2", where, js.State, js.Restarts)
				}
				return
			}
		}
		t.Errorf("%s forgot the job", where)
	}
	leader := r.table.List()
	check("table", leader)
	check("follower", follower.Table().List())
	if !reflect.DeepEqual(contactSet(follower.Table().List()), contactSet(leader)) {
		t.Error("follower holds a different job set from the leader")
	}
	if err := r.jnl.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	check("recovery", recovered.Table().List())
}

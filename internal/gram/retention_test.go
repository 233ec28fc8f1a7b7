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
		table:    job.NewTable("site:1"),
		jnl:      jnl,
		noop:     decodeJob(t, noopSpec),
		finished: make(chan string, 16),
	}
	r.m = gram.NewManager(gram.ManagerConfig{
		Table:    r.table,
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

func contactSet(jobs []journal.JobState) []string {
	out := make([]string, 0, len(jobs))
	for _, js := range jobs {
		out = append(out, js.Contact)
	}
	sort.Strings(out)
	return out
}

// TestRetentionBoundsJobHistory runs 3·KeepTerminal jobs through a
// journaled manager. Whatever ran before, the table, the journal fold and
// the snapshot hold only the newest KeepTerminal finished jobs (3·N
// retirements end on a cut of the window), those still answer STATUS, an
// older contact answers "expired", and two recoveries in a row restore
// exactly the set the running journal held.
func TestRetentionBoundsJobHistory(t *testing.T) {
	const n = job.KeepTerminal
	dir := t.TempDir()
	r := newRetentionRig(t, dir, scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{}), nil)
	contacts := r.runNoops(3 * n)

	live, finished, order := r.jnl.Footprint()
	if got := r.table.Len(); got > n+live {
		t.Errorf("table holds %d jobs after %d; want <= %d", got, 3*n, n+live)
	}
	if finished > n || order > n+live {
		t.Errorf("journal fold holds %d finished jobs, order index %d; want <= %d and <= %d", finished, order, n, n+live)
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

	var tableSet []string
	for _, rec := range r.table.List() {
		tableSet = append(tableSet, rec.Contact)
	}
	leaderSet := contactSet(r.jnl.Jobs())
	if !reflect.DeepEqual(tableSet, leaderSet) {
		t.Errorf("table and journal hold different jobs: %d vs %d", len(tableSet), len(leaderSet))
	}
	if err := r.jnl.Close(); err != nil {
		t.Fatal(err)
	}

	reopen := func() *journal.Recovered {
		t.Helper()
		jnl, rec, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer jnl.Close()
		table := job.NewTable("site:1")
		m := gram.NewManager(gram.ManagerConfig{Table: table, Journal: jnl})
		if _, err := m.RecoverJournal(rec, func(string) rsl.Env { return nil }); err != nil {
			t.Fatal(err)
		}
		if table.Len() != len(rec.Jobs) {
			t.Errorf("recovered table holds %d jobs; journal replayed %d", table.Len(), len(rec.Jobs))
		}
		if _, err := table.Get(oldest); !errors.Is(err, job.ErrExpired) {
			t.Errorf("recovered Get(oldest) = %v; want ErrExpired", err)
		}
		if c, want := table.NewContact(time.Now()), fmt.Sprintf("gram://site:1/%d/", 3*n+1); !strings.HasPrefix(c, want) {
			t.Errorf("recovered table issues %s; want the job id after the last recovered one, %s…", c, want)
		}
		return rec
	}
	rec1 := reopen()
	if got := contactSet(rec1.Jobs); !reflect.DeepEqual(got, leaderSet) {
		t.Fatalf("recovery holds %d jobs; the running journal held %d", len(got), len(leaderSet))
	}
	rec2 := reopen()
	if !reflect.DeepEqual(rec1.Jobs, rec2.Jobs) {
		t.Fatal("second recovery differs from the first")
	}
}

// TestTableAndJournalAgreeWhenFinishesCross: the manager files a
// finished job in the table and then in the journal, under two locks, so
// two jobs finishing together can reach the two in opposite orders. Here
// every pair does, with a cut of the window falling inside pairs. Both
// order the window by the time of each job's last change, which they
// record alike, so they forget the same jobs.
func TestTableAndJournalAgreeWhenFinishesCross(t *testing.T) {
	const n = job.KeepTerminal
	table := job.NewTable("site:1")
	jnl, _, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	ctx := context.Background()
	base := time.Now()
	clock := 0
	start := func() (string, time.Time) {
		t.Helper()
		clock++
		at := base.Add(time.Duration(clock) * time.Millisecond)
		c := table.NewContact(at)
		if err := table.Create(job.Record{Contact: c, State: job.Active, Submitted: at, Updated: at}); err != nil {
			t.Fatal(err)
		}
		if err := jnl.Append(ctx, journal.Entry{Kind: journal.KindSubmit, Time: at.UnixNano(), Contact: c, Spec: noopSpec}); err != nil {
			t.Fatal(err)
		}
		clock++
		return c, base.Add(time.Duration(clock) * time.Millisecond)
	}
	toTable := func(c string, at time.Time) {
		t.Helper()
		if _, err := table.Transition(c, job.Mutation{State: job.Done}, at); err != nil {
			t.Fatal(err)
		}
	}
	toJournal := func(c string, at time.Time) {
		t.Helper()
		exit := 0
		if err := jnl.Append(ctx, journal.Entry{Kind: journal.KindState, Time: at.UnixNano(), Contact: c, State: "DONE", ExitCode: &exit}); err != nil {
			t.Fatal(err)
		}
	}
	// One lone finish first, so the cuts at 2·N, 3·N and 4·N finishes
	// fall between the two halves of a pair.
	c, at := start()
	toTable(c, at)
	toJournal(c, at)
	for i := 0; i < 2*n; i++ {
		a, atA := start()
		b, atB := start()
		toTable(a, atA)
		toTable(b, atB)
		toJournal(b, atB)
		toJournal(a, atA)
	}
	var tableSet []string
	for _, rec := range table.List() {
		tableSet = append(tableSet, rec.Contact)
	}
	journalSet := contactSet(jnl.Jobs())
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

	check := func(where string, jobs []journal.JobState) {
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
	leader := r.jnl.Jobs()
	check("journal", leader)
	check("follower", follower.Jobs())
	if !reflect.DeepEqual(contactSet(follower.Jobs()), contactSet(leader)) {
		t.Error("follower holds a different job set from the leader")
	}
	if err := r.jnl.Close(); err != nil {
		t.Fatal(err)
	}
	_, recovered, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	check("recovery", recovered.Jobs)
}

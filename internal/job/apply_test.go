package job

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func intp(n int) *int { return &n }

func strp(s string) *string { return &s }

// apply folds records into tbl, stamping each with its index as its time.
func apply(tbl *Table, es ...Entry) {
	for i, e := range es {
		e.Time = int64(i + 1)
		tbl.Apply(e)
	}
}

// The fold keeps the latest value of every field: the submission's
// identity, a state record's transition and output, a checkpoint. A
// record for a contact never submitted invents no job.
func TestApplyFoldsRecords(t *testing.T) {
	tbl := NewTable("h:1")
	apply(tbl,
		Entry{Kind: KindSubmit, Contact: "c", Spec: "&(executable=x)", Owner: "alice", Identity: "/CN=alice"},
		Entry{Kind: KindState, Contact: "ghost", State: "ACTIVE"},
		Entry{Kind: KindState, Contact: "c", State: "FAILED", ExitCode: intp(3), Error: "exit code 3 (will restart)", WillRestart: true, Stdout: strp("try-0")},
		Entry{Kind: KindState, Contact: "c", State: "PENDING", Restarts: 1},
		Entry{Kind: KindCheckpoint, Contact: "c", Checkpoint: "step=4"},
	)
	if tbl.Len() != 1 {
		t.Fatalf("table holds %d jobs; want c only", tbl.Len())
	}
	rec, err := tbl.Get("c")
	if err != nil {
		t.Fatal(err)
	}
	want := Record{Contact: "c", Spec: "&(executable=x)", Owner: "alice", Identity: "/CN=alice",
		State: Pending, ExitCode: 3, Stdout: "try-0", Restarts: 1, Checkpoint: "step=4",
		Submitted: time.Unix(0, 1), Updated: time.Unix(0, 5)}
	if rec != want {
		t.Fatalf("folded\n %+v\nwant\n %+v", rec, want)
	}
	if rec.Finished() {
		t.Fatal("a restarted job reads finished")
	}
}

// A state record that reaches the journal after its job finished, though
// made before, cannot revive it: a terminal job moves only where the
// state machine allows. DONE stays DONE; FAILED takes a restart's PENDING,
// which journals written before WillRestart existed still carry, and
// nothing else.
func TestApplyStaleRecordCannotReviveFinishedJob(t *testing.T) {
	tbl := NewTable("h:1")
	apply(tbl,
		Entry{Kind: KindSubmit, Contact: "done", Spec: "&(executable=x)(restart=1)"},
		Entry{Kind: KindState, Contact: "done", State: "DONE", ExitCode: intp(0), Restarts: 1, Stdout: strp("out")},
		Entry{Kind: KindState, Contact: "done", State: "SUSPENDED", Restarts: 1},
		Entry{Kind: KindState, Contact: "done", State: "PENDING", Restarts: 2},
		Entry{Kind: KindSubmit, Contact: "failed"},
		Entry{Kind: KindState, Contact: "failed", State: "FAILED", ExitCode: intp(1), Error: "exit code 1"},
		Entry{Kind: KindState, Contact: "failed", State: "ACTIVE", Restarts: 1},
		Entry{Kind: KindSubmit, Contact: "old"},
		Entry{Kind: KindState, Contact: "old", State: "FAILED", ExitCode: intp(1), Error: "exit code 1 (will restart)"},
		Entry{Kind: KindState, Contact: "old", State: "PENDING", Restarts: 1},
	)
	if rec, _ := tbl.Get("done"); rec.State != Done || rec.Stdout != "out" || !rec.Finished() || rec.Updated != time.Unix(0, 2) {
		t.Errorf("DONE job after stale records = %+v; want DONE as finished", rec)
	}
	if rec, _ := tbl.Get("failed"); rec.State != Failed || rec.Restarts != 0 || !rec.Finished() {
		t.Errorf("FAILED job after an ACTIVE record = %+v; want FAILED", rec)
	}
	if rec, _ := tbl.Get("old"); rec.State != Pending || rec.Restarts != 1 || rec.Finished() {
		t.Errorf("FAILED job after its restart's PENDING = %+v; want PENDING", rec)
	}
}

// Transition leaves a record exactly as Apply leaves it for the same
// record, which is the one the journal writes: the live path and replay
// share one rule. The sequence is a restart, a suspend and a resume.
func TestTransitionAndApplyAgree(t *testing.T) {
	live := NewTable("h:1")
	replayed := NewTable("h:1")
	c := live.NewContact(now)
	submit := Entry{Kind: KindSubmit, Time: now.UnixNano(), Contact: c, Spec: "&(executable=x)(restart=1)", Owner: "alice"}
	live.Apply(submit)
	replayed.Apply(submit)
	for i, e := range []Entry{
		{State: "PENDING"},
		{State: "ACTIVE"},
		{State: "FAILED", ExitCode: intp(2), Error: "exit code 2 (will restart)", Stdout: strp("a"), Stderr: strp(""), WillRestart: true},
		{State: "PENDING", Restarts: 1},
		{State: "ACTIVE", Restarts: 1},
		{State: "SUSPENDED", Restarts: 1},
		{State: "ACTIVE", Restarts: 1},
		{State: "DONE", ExitCode: intp(0), Stdout: strp("b"), Restarts: 1},
	} {
		e.Kind, e.Time, e.Contact = KindState, now.Add(time.Duration(i+1)*time.Second).UnixNano(), c
		ev, err := live.Transition(e)
		if err != nil {
			t.Fatal(err)
		}
		replayed.Apply(e)
		got, _ := replayed.Get(c)
		want, _ := live.Get(c)
		if got != want {
			t.Fatalf("after %s:\n live     %+v\n replayed %+v", e.State, want, got)
		}
		if wantEv := (Event{Contact: c, State: want.State, ExitCode: want.ExitCode, Error: want.Error, Restarts: want.Restarts, Time: want.Updated}); ev != wantEv {
			t.Fatalf("after %s: event %+v; want %+v", e.State, ev, wantEv)
		}
	}
}

// A live record whose restart count is below the job's is refused: a
// suspend made for an earlier attempt would otherwise journal a count
// from which recovery re-grants spent restarts.
func TestTransitionRefusesFewerRestarts(t *testing.T) {
	tbl := NewTable("h:1")
	c := newJob(t, tbl)
	walkTo(t, tbl, c, Failed)
	second := func(st State) Entry {
		e := to(c, st)
		e.Restarts = 1
		return e
	}
	for _, e := range []Entry{second(Pending), second(Active)} {
		if _, err := tbl.Transition(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Transition(to(c, Suspended)); err == nil {
		t.Error("a SUSPENDED with restarts 0 was accepted on the second attempt")
	}
	if rec, _ := tbl.Get(c); rec.State != Active || rec.Restarts != 1 {
		t.Errorf("after the refused record: %s, restarts %d; want ACTIVE, 1", rec.State, rec.Restarts)
	}
	if _, err := tbl.Transition(second(Suspended)); err != nil {
		t.Errorf("a SUSPENDED carrying the job's count: %v", err)
	}
}

// Recovery re-queues an unfinished job from whatever state its crashed
// attempt left it in, through Resume; Transition does not, and a finished
// job cannot be re-queued.
func TestResumedPendingLeavesAnyUnfinishedState(t *testing.T) {
	tbl := NewTable("h:1")
	for _, st := range []State{Active, Suspended} {
		c := newJob(t, tbl)
		walkTo(t, tbl, c, st)
		if _, err := tbl.Transition(to(c, Pending)); err == nil {
			t.Errorf("%s -> PENDING accepted by Transition", st)
		}
		if _, err := tbl.Resume(to(c, Done)); err == nil {
			t.Errorf("%s resumed as DONE", st)
		}
		if _, err := tbl.Resume(to(c, Pending)); err != nil {
			t.Errorf("resumed %s -> PENDING: %v", st, err)
		}
	}
	c := newJob(t, tbl)
	walkTo(t, tbl, c, Done)
	if _, err := tbl.Resume(to(c, Pending)); err == nil {
		t.Error("a DONE job was re-queued")
	}
}

// A table filled before it knew its host (a journal's, by replay) issues
// job ids above every id it has held or restored, whatever host issued
// them, once bound.
func TestBindResumesAboveLastID(t *testing.T) {
	tbl := NewTable("")
	apply(tbl,
		Entry{Kind: KindSubmit, Contact: "gram://h:1/7/1"},
		Entry{Kind: KindSubmit, Contact: "gram://old:2/9/1"},
	)
	tbl.Bind("h:1")
	if c := tbl.NewContact(now); !strings.HasPrefix(c, "gram://h:1/10/") {
		t.Errorf("NewContact after Bind = %s; want job id 10", c)
	}
	restored := NewTable("")
	restored.Restore([]Record{{Contact: "gram://h:1/3/1", State: Done}}, 20)
	if got := restored.LastID(); got != 20 {
		t.Errorf("LastID after Restore = %d; want 20", got)
	}
	restored.Bind("h:1")
	if _, err := restored.Get("gram://h:1/20/5"); !errors.Is(err, ErrExpired) {
		t.Errorf("Get(an id below the restored LastID) = %v; want ErrExpired", err)
	}
	if c := restored.NewContact(now); !strings.HasPrefix(c, "gram://h:1/21/") {
		t.Errorf("NewContact after Restore and Bind = %s; want job id 21", c)
	}
}

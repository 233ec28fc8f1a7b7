package job

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// finishJob creates a job and takes it to DONE at now+i seconds.
func finishJob(t *testing.T, tbl *Table, i int) string {
	t.Helper()
	c := newJob(t, tbl)
	for _, st := range []State{Pending, Done} {
		e := to(c, st)
		e.Time = now.Add(time.Duration(i) * time.Second).UnixNano()
		if _, err := tbl.Transition(e); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// The table keeps between KeepTerminal and 2·KeepTerminal finished jobs,
// forgetting the oldest first; live jobs and a FAILED that will restart
// are never forgotten, and a forgotten contact reads as expired.
func TestTableKeepsFinishedWindow(t *testing.T) {
	tbl := NewTable("h:1")
	live := newJob(t, tbl)
	restarting := newJob(t, tbl)
	failed := to(restarting, Failed)
	failed.ExitCode, failed.Error, failed.WillRestart = intp(1), "exit code 1 (will restart)", true
	if _, err := tbl.Transition(failed); err != nil {
		t.Fatal(err)
	}
	var done []string
	for i := 0; i < 2*KeepTerminal-1; i++ {
		done = append(done, finishJob(t, tbl, i))
	}
	if got := tbl.Len(); got != 2*KeepTerminal+1 {
		t.Fatalf("Len = %d before the cut; want %d", got, 2*KeepTerminal+1)
	}
	done = append(done, finishJob(t, tbl, len(done)))
	if got := tbl.Len(); got != KeepTerminal+2 {
		t.Fatalf("Len = %d after the cut; want %d", got, KeepTerminal+2)
	}
	for _, c := range []string{live, restarting, done[KeepTerminal]} {
		if _, err := tbl.Get(c); err != nil {
			t.Errorf("Get(%s) = %v", c, err)
		}
	}
	oldest := done[KeepTerminal-1]
	_, err := tbl.Get(oldest)
	if !errors.Is(err, ErrExpired) || err.Error() != fmt.Sprintf("job: contact %q expired", oldest) {
		t.Errorf("Get(forgotten) = %v; want ErrExpired", err)
	}
	if _, err := tbl.Transition(to(oldest, Done)); !errors.Is(err, ErrExpired) {
		t.Errorf("Transition(forgotten) = %v; want ErrExpired", err)
	}
	if _, _, err := tbl.Subscribe(oldest); !errors.Is(err, ErrExpired) {
		t.Errorf("Subscribe(forgotten) = %v; want ErrExpired", err)
	}
	if _, err := tbl.Transition(to(restarting, Pending)); err != nil {
		t.Errorf("restart after the cut: %v", err)
	}
}

// Expire keeps the newest KeepTerminal by finishing time, breaking ties
// by contact, whatever order it is given them in.
func TestExpireKeepsNewest(t *testing.T) {
	if got := Expire(make([]Retiree, KeepTerminal)); got != nil {
		t.Fatalf("Expire(a full window) = %d jobs; want none", len(got))
	}
	var held []Retiree
	for i := 2*KeepTerminal - 1; i >= 0; i-- {
		held = append(held, Retiree{Updated: int64(i / 2), Contact: fmt.Sprintf("c%05d", i)})
	}
	gone := Expire(held)
	if len(gone) != KeepTerminal {
		t.Fatalf("Expire forgot %d of %d; want %d", len(gone), 2*KeepTerminal, KeepTerminal)
	}
	for i, r := range gone {
		if want := fmt.Sprintf("c%05d", i); r.Contact != want {
			t.Fatalf("forgotten #%d = %s; want %s", i, r.Contact, want)
		}
	}
}

// Only a contact this table issued can be expired: another host's, or a
// job id past the last one issued, is unknown.
func TestExpiredOnlyForIssuedContacts(t *testing.T) {
	tbl := NewTable("h:1")
	newJob(t, tbl)
	newJob(t, tbl)
	for c, expired := range map[string]bool{
		"gram://h:1/2/99": true,
		"gram://h:1/3/99": false,
		"gram://h:2/1/99": false,
		"gram://h:1/x/99": false,
		"gram://h:1/1":    false,
		"gram://nope/1/2": false,
	} {
		_, err := tbl.Get(c)
		if errors.Is(err, ErrExpired) != expired {
			t.Errorf("Get(%s) = %v; expired %v", c, err, expired)
		}
		if !expired && !strings.Contains(err.Error(), "unknown contact") {
			t.Errorf("Get(%s) = %v; want unknown contact", c, err)
		}
	}
}

// A restarted table recovers contacts it issued before: its job ids must
// resume above every one of them.
func TestSequenceResumesAboveRecoveredContacts(t *testing.T) {
	tbl := NewTable("h:1")
	tbl.Restore([]Record{
		{Contact: "gram://h:1/41/7", State: Done},
		{Contact: "gram://h:1/9/8", State: Done},
		{Contact: "gram://other:1/500/9", State: Done},
	}, 0)
	if c := tbl.NewContact(now); !strings.HasPrefix(c, "gram://h:1/42/") {
		t.Errorf("NewContact after recovery = %s; want job id 42", c)
	}
	if _, err := tbl.Get("gram://h:1/30/1"); !errors.Is(err, ErrExpired) {
		t.Errorf("Get(an id below the recovered ones) = %v; want ErrExpired", err)
	}
}

// RemoteError restores ErrExpired from an error message and leaves every
// other message a plain error with the same text.
func TestRemoteError(t *testing.T) {
	msg := `job: contact "gram://h:1/1/2" expired`
	err := RemoteError("infogram: server error: ", msg)
	if !errors.Is(err, ErrExpired) || err.Error() != "infogram: server error: "+msg {
		t.Errorf("RemoteError(expired) = %v", err)
	}
	for _, other := range []string{`job: unknown contact "x"`, "expired", `gram: job "x" expired`} {
		err := RemoteError("p: ", other)
		if errors.Is(err, ErrExpired) || err.Error() != "p: "+other {
			t.Errorf("RemoteError(%q) = %v", other, err)
		}
	}
}

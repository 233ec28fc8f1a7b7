package job

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var now = time.Date(2002, 7, 24, 12, 0, 0, 0, time.UTC)

func TestStateStrings(t *testing.T) {
	cases := map[State]string{
		Unsubmitted: "UNSUBMITTED", Pending: "PENDING", Active: "ACTIVE",
		Suspended: "SUSPENDED", Done: "DONE", Failed: "FAILED",
	}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
		back, err := ParseState(want)
		if err != nil || back != st {
			t.Errorf("ParseState(%q) = %v, %v", want, back, err)
		}
		// Lower case accepted.
		back, err = ParseState(strings.ToLower(want))
		if err != nil || back != st {
			t.Errorf("ParseState lower(%q) = %v, %v", want, back, err)
		}
	}
	if _, err := ParseState("LIMBO"); err == nil {
		t.Error("ParseState(LIMBO) succeeded")
	}
}

func TestTerminal(t *testing.T) {
	for st, want := range map[State]bool{
		Unsubmitted: false, Pending: false, Active: false,
		Suspended: false, Done: true, Failed: true,
	} {
		if st.Terminal() != want {
			t.Errorf("%s.Terminal() = %v", st, st.Terminal())
		}
	}
}

// to is the state record moving contact's job to st, stamped now.
func to(contact string, st State) Entry {
	return Entry{Kind: KindState, Time: now.UnixNano(), Contact: contact, State: st.String()}
}

func newJob(t *testing.T, tbl *Table) string {
	t.Helper()
	contact := tbl.NewContact(now)
	tbl.Apply(Entry{Kind: KindSubmit, Time: now.UnixNano(), Contact: contact})
	return contact
}

func TestLifecycle(t *testing.T) {
	tbl := NewTable("127.0.0.1:2119")
	contact := newJob(t, tbl)
	if !strings.HasPrefix(contact, "gram://127.0.0.1:2119/") {
		t.Errorf("contact = %q", contact)
	}

	steps := []State{Pending, Active, Done}
	for _, st := range steps {
		if _, err := tbl.Transition(to(contact, st)); err != nil {
			t.Fatalf("to %s: %v", st, err)
		}
	}
	rec, err := tbl.Get(contact)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != Done {
		t.Errorf("state = %s", rec.State)
	}
}

func TestInvalidTransitions(t *testing.T) {
	tbl := NewTable("h:1")
	bad := []struct{ from, to State }{
		{Unsubmitted, Active},
		{Unsubmitted, Done},
		{Pending, Suspended},
		{Done, Active},
		{Done, Failed},
		{Done, Pending},
		{Failed, Active},
	}
	for _, c := range bad {
		contact := newJob(t, tbl)
		walkTo(t, tbl, contact, c.from)
		if _, err := tbl.Transition(to(contact, c.to)); err == nil {
			t.Errorf("transition %s -> %s allowed", c.from, c.to)
		}
	}
}

// walkTo drives a fresh job to the given state through legal steps.
func walkTo(t *testing.T, tbl *Table, contact string, target State) {
	t.Helper()
	var path []State
	switch target {
	case Unsubmitted:
	case Pending:
		path = []State{Pending}
	case Active:
		path = []State{Pending, Active}
	case Suspended:
		path = []State{Pending, Active, Suspended}
	case Done:
		path = []State{Pending, Active, Done}
	case Failed:
		path = []State{Pending, Failed}
	}
	for _, st := range path {
		if _, err := tbl.Transition(to(contact, st)); err != nil {
			t.Fatalf("walk to %s: %v", st, err)
		}
	}
}

func TestFailedRestartsToPending(t *testing.T) {
	// The §6.1 fault-tolerance path: FAILED -> PENDING.
	tbl := NewTable("h:1")
	contact := newJob(t, tbl)
	walkTo(t, tbl, contact, Failed)
	restart := to(contact, Pending)
	restart.Restarts = 1
	ev, err := tbl.Transition(restart)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if ev.Restarts != 1 {
		t.Errorf("Restarts = %d", ev.Restarts)
	}
}

func TestSuspendResume(t *testing.T) {
	tbl := NewTable("h:1")
	contact := newJob(t, tbl)
	walkTo(t, tbl, contact, Suspended)
	if _, err := tbl.Transition(to(contact, Active)); err != nil {
		t.Errorf("resume: %v", err)
	}
}

func TestTransitionUpdatesRecord(t *testing.T) {
	tbl := NewTable("h:1")
	contact := newJob(t, tbl)
	walkTo(t, tbl, contact, Active)
	later := now.Add(time.Minute)
	if _, err := tbl.Transition(Entry{
		Kind: KindState, Time: later.UnixNano(), Contact: contact,
		State: "DONE", ExitCode: intp(0), Stdout: strp("out"), Stderr: strp("err"),
	}); err != nil {
		t.Fatal(err)
	}
	rec, _ := tbl.Get(contact)
	if rec.Stdout != "out" || rec.Stderr != "err" || !rec.Updated.Equal(later) {
		t.Errorf("rec = %+v", rec)
	}
}

func TestUnknownContact(t *testing.T) {
	tbl := NewTable("h:1")
	if _, err := tbl.Get("gram://nope/1/2"); err == nil {
		t.Error("Get unknown succeeded")
	}
	if _, err := tbl.Transition(to("gram://nope/1/2", Pending)); err == nil {
		t.Error("Transition unknown succeeded")
	}
	if _, _, err := tbl.Subscribe("gram://nope/1/2"); err == nil {
		t.Error("Subscribe unknown succeeded")
	}
}

func TestContactsUnique(t *testing.T) {
	tbl := NewTable("h:1")
	prop := func(n uint8) bool {
		seen := make(map[string]bool)
		for i := 0; i < int(n%32)+2; i++ {
			c := tbl.NewContact(now)
			if seen[c] {
				return false
			}
			seen[c] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSubscription(t *testing.T) {
	tbl := NewTable("h:1")
	contact := newJob(t, tbl)
	ch, cancel, err := tbl.Subscribe(contact)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	walkTo(t, tbl, contact, Done)
	var states []State
	for i := 0; i < 3; i++ {
		select {
		case ev := <-ch:
			states = append(states, ev.State)
		case <-time.After(time.Second):
			t.Fatalf("missing event %d", i)
		}
	}
	if states[0] != Pending || states[1] != Active || states[2] != Done {
		t.Errorf("states = %v", states)
	}
}

func TestUnsubscribeStopsEvents(t *testing.T) {
	tbl := NewTable("h:1")
	contact := newJob(t, tbl)
	ch, cancel, err := tbl.Subscribe(contact)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	walkTo(t, tbl, contact, Done)
	select {
	case ev, ok := <-ch:
		if ok {
			t.Errorf("received %v after cancel", ev)
		}
	default:
	}
}

func TestSlowSubscriberDoesNotBlock(t *testing.T) {
	tbl := NewTable("h:1")
	contact := newJob(t, tbl)
	// Subscribe but never read: transitions must not block.
	_, cancel, err := tbl.Subscribe(contact)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		walkTo(t, tbl, contact, Active)
		for i := 0; i < 100; i++ {
			_, _ = tbl.Transition(to(contact, Suspended))
			_, _ = tbl.Transition(to(contact, Active))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("transitions blocked on slow subscriber")
	}
}

func TestListSortedAndLen(t *testing.T) {
	tbl := NewTable("h:1")
	for i := 0; i < 5; i++ {
		newJob(t, tbl)
	}
	if tbl.Len() != 5 {
		t.Errorf("Len = %d", tbl.Len())
	}
	list := tbl.List()
	for i := 1; i < len(list); i++ {
		if list[i-1].Contact >= list[i].Contact {
			t.Errorf("List not sorted at %d", i)
		}
	}
}

func TestConcurrentTransitions(t *testing.T) {
	tbl := NewTable("h:1")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				contact := tbl.NewContact(now)
				tbl.Apply(Entry{Kind: KindSubmit, Contact: contact})
				for _, st := range []State{Pending, Active, Done} {
					if _, err := tbl.Transition(to(contact, st)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if tbl.Len() != 8*50 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

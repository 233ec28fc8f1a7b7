// Package job defines the job model shared by the GRAM baseline and the
// InfoGram service: the GRAM 1.1 state machine, job contact handles (the
// "GlobusID" of paper §2), status events, and an in-memory job table with
// event subscription used for both polling and callback notification.
package job

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// State is a GRAM job state.
type State int

// GRAM 1.1 job states.
const (
	Unsubmitted State = iota
	Pending           // accepted and queued
	Active            // running
	Suspended         // temporarily not running
	Done              // finished successfully
	Failed            // finished unsuccessfully
)

// String renders the state in GRAM's upper-case convention.
func (s State) String() string {
	switch s {
	case Unsubmitted:
		return "UNSUBMITTED"
	case Pending:
		return "PENDING"
	case Active:
		return "ACTIVE"
	case Suspended:
		return "SUSPENDED"
	case Done:
		return "DONE"
	case Failed:
		return "FAILED"
	}
	return fmt.Sprintf("STATE(%d)", int(s))
}

// ParseState converts a state name back to a State.
func ParseState(s string) (State, error) {
	switch strings.ToUpper(s) {
	case "UNSUBMITTED":
		return Unsubmitted, nil
	case "PENDING":
		return Pending, nil
	case "ACTIVE":
		return Active, nil
	case "SUSPENDED":
		return Suspended, nil
	case "DONE":
		return Done, nil
	case "FAILED":
		return Failed, nil
	}
	return Unsubmitted, fmt.Errorf("job: unknown state %q", s)
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed }

// validTransition encodes the GRAM state machine.
func validTransition(from, to State) bool {
	if from == to {
		return true
	}
	switch from {
	case Unsubmitted:
		return to == Pending || to == Failed
	case Pending:
		return to == Active || to == Failed || to == Done
	case Active:
		return to == Suspended || to == Done || to == Failed
	case Suspended:
		return to == Active || to == Failed || to == Done
	default:
		// Done / Failed are terminal, except a fault-tolerant restart
		// which moves Failed back to Pending (paper §6.1).
		return from == Failed && to == Pending
	}
}

// Event is one job state-change notification, delivered to pollers and
// callback subscribers alike.
type Event struct {
	Contact  string    `json:"contact"`
	State    State     `json:"state"`
	ExitCode int       `json:"exitCode"`
	Error    string    `json:"error,omitempty"`
	Restarts int       `json:"restarts,omitempty"`
	Time     time.Time `json:"time"`
}

// Record is the job table's view of one job.
type Record struct {
	Contact   string
	Spec      string // originating xRSL, for accounting and restart
	Owner     string // local account from the gridmap
	Identity  string // authenticated Grid identity
	State     State
	ExitCode  int
	Error     string
	Stdout    string
	Stderr    string
	Restarts  int
	Submitted time.Time
	Updated   time.Time
}

// KeepTerminal is how many finished jobs a job table, and the journal
// fold, keep answering for. Older ones are forgotten oldest first, as a
// GRAM job manager is gone once its job is (paper Figure 1); the audit log
// is the permanent record. A job counts as finished at DONE, or at a
// FAILED that will not restart. Eviction is amortised: the finished set
// grows to 2·KeepTerminal and is then cut back to the newest KeepTerminal
// (see Expire).
const KeepTerminal = 4096

// Retiree is a finished job as the retention window sees it: the time of
// its last state change, in Unix nanoseconds, and its contact. A job
// table and the journal record the same time for the same change, so
// both order their finished jobs alike.
type Retiree struct {
	Updated int64
	Contact string
}

// Expire returns the finished jobs the window forgets from held: all but
// the newest KeepTerminal, ordered by Updated and then by contact. It
// reorders held.
func Expire(held []Retiree) []Retiree {
	if len(held) <= KeepTerminal {
		return nil
	}
	slices.SortFunc(held, func(a, b Retiree) int {
		return cmp.Or(cmp.Compare(a.Updated, b.Updated), strings.Compare(a.Contact, b.Contact))
	})
	return held[:len(held)-KeepTerminal]
}

// ErrExpired marks a contact this table issued whose job it has since
// forgotten (see KeepTerminal).
var ErrExpired = errors.New("expired")

// RemoteError rebuilds an error message received from a server as an
// error reading prefix+msg. An expired-contact message wraps ErrExpired,
// so errors.Is holds on both sides of a connection.
func RemoteError(prefix, msg string) error {
	if rest, ok := strings.CutSuffix(msg, " "+ErrExpired.Error()); ok && strings.HasPrefix(rest, "job: contact ") {
		return fmt.Errorf("%s%s %w", prefix, rest, ErrExpired)
	}
	return errors.New(prefix + msg)
}

// Table is a concurrency-safe job table with per-job event fan-out. It
// backs the middle tier's view of jobs in both GRAM and InfoGram.
type Table struct {
	mu       sync.RWMutex
	jobs     map[string]*entry
	finished int // entries with finished set
	seq      atomic.Uint64
	prefix   string // "gram://host/", the head of every contact issued here
}

type entry struct {
	rec      Record
	subs     []chan Event
	finished bool // DONE, or FAILED with no restart to follow
}

// NewTable creates a table issuing contacts under the given host:port
// string, mirroring how GRAM job contacts embed the job manager address.
func NewTable(host string) *Table {
	return &Table{jobs: make(map[string]*entry), prefix: "gram://" + host + "/"}
}

// NewContact allocates a fresh job contact handle. The layout follows the
// GRAM convention of address + job id + timestamp.
func (t *Table) NewContact(now time.Time) string {
	id := t.seq.Add(1)
	return fmt.Sprintf("%s%d/%d", t.prefix, id, now.UnixNano())
}

// issuedSeq returns the job id of a contact in this table's layout and
// under its host; ok is false for any other contact.
func (t *Table) issuedSeq(contact string) (seq uint64, ok bool) {
	rest, ok := strings.CutPrefix(contact, t.prefix)
	if !ok {
		return 0, false
	}
	id, _, ok := strings.Cut(rest, "/")
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(id, 10, 64)
	return seq, err == nil
}

// missing is the error for a contact the table does not hold: expired if
// the table issued it, unknown otherwise.
func (t *Table) missing(contact string) error {
	if seq, ok := t.issuedSeq(contact); ok && seq <= t.seq.Load() {
		return fmt.Errorf("job: contact %q %w", contact, ErrExpired)
	}
	return fmt.Errorf("job: unknown contact %q", contact)
}

// Create inserts a new job record in the given initial state. A record
// created in a terminal state counts as finished. Creating a contact this
// table's host issued moves the job-id sequence above it, so contacts a
// restarted table recovers are never issued again.
func (t *Table) Create(rec Record) error {
	if seq, ok := t.issuedSeq(rec.Contact); ok {
		for cur := t.seq.Load(); seq > cur && !t.seq.CompareAndSwap(cur, seq); cur = t.seq.Load() {
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.jobs[rec.Contact]; dup {
		return fmt.Errorf("job: duplicate contact %q", rec.Contact)
	}
	e := &entry{rec: rec}
	t.jobs[rec.Contact] = e
	t.setFinishedLocked(e, rec.State.Terminal())
	return nil
}

// setFinishedLocked marks e finished or not. Once 2·KeepTerminal jobs
// are finished it forgets all but the newest KeepTerminal of them (see
// Expire). Caller holds mu.
func (t *Table) setFinishedLocked(e *entry, finished bool) {
	if e.finished == finished {
		return
	}
	e.finished = finished
	if !finished {
		t.finished--
		return
	}
	if t.finished++; t.finished < 2*KeepTerminal {
		return
	}
	held := make([]Retiree, 0, t.finished)
	for c, e := range t.jobs {
		if e.finished {
			held = append(held, Retiree{Updated: e.rec.Updated.UnixNano(), Contact: c})
		}
	}
	for _, r := range Expire(held) {
		delete(t.jobs, r.Contact)
		t.finished--
	}
}

// Remove deletes a job record outright. It exists for submission
// rollback: when the durability layer refuses the submit record, the job
// must not remain visible in the table it was never journaled into.
func (t *Table) Remove(contact string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.jobs[contact]; ok {
		t.setFinishedLocked(e, false)
		delete(t.jobs, contact)
	}
}

// Get returns a snapshot of the job record.
func (t *Table) Get(contact string) (Record, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.jobs[contact]
	if !ok {
		return Record{}, t.missing(contact)
	}
	return e.rec, nil
}

// List returns snapshots of all jobs, ordered by contact.
func (t *Table) List() []Record {
	t.mu.RLock()
	out := make([]Record, 0, len(t.jobs))
	for _, e := range t.jobs {
		out = append(out, e.rec)
	}
	t.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Contact < out[j].Contact })
	return out
}

// Len returns the number of jobs in the table.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.jobs)
}

// Mutation describes a state update applied by Transition.
type Mutation struct {
	State    State
	ExitCode int
	Error    string
	Stdout   *string // nil leaves unchanged
	Stderr   *string
	Restarts *int
	// WillRestart marks a FAILED that a restart will follow: the job is
	// not finished, so it cannot be forgotten before its next PENDING.
	WillRestart bool
}

// Transition applies a validated state change and notifies subscribers.
func (t *Table) Transition(contact string, m Mutation, now time.Time) (Event, error) {
	t.mu.Lock()
	e, ok := t.jobs[contact]
	if !ok {
		t.mu.Unlock()
		return Event{}, t.missing(contact)
	}
	if !validTransition(e.rec.State, m.State) {
		from := e.rec.State
		t.mu.Unlock()
		return Event{}, fmt.Errorf("job: invalid transition %s -> %s for %q", from, m.State, contact)
	}
	e.rec.State = m.State
	e.rec.ExitCode = m.ExitCode
	e.rec.Error = m.Error
	e.rec.Updated = now
	if m.Stdout != nil {
		e.rec.Stdout = *m.Stdout
	}
	if m.Stderr != nil {
		e.rec.Stderr = *m.Stderr
	}
	if m.Restarts != nil {
		e.rec.Restarts = *m.Restarts
	}
	ev := Event{
		Contact:  contact,
		State:    e.rec.State,
		ExitCode: e.rec.ExitCode,
		Error:    e.rec.Error,
		Restarts: e.rec.Restarts,
		Time:     now,
	}
	subs := make([]chan Event, len(e.subs))
	copy(subs, e.subs)
	t.setFinishedLocked(e, m.State.Terminal() && !m.WillRestart)
	t.mu.Unlock()

	for _, ch := range subs {
		select {
		case ch <- ev:
		default:
			// Slow subscriber: drop rather than block the job manager;
			// pollers will still observe the final state.
		}
	}
	return ev, nil
}

// Subscribe returns a channel receiving state events for contact. The
// channel is buffered; cancel releases it.
func (t *Table) Subscribe(contact string) (<-chan Event, func(), error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.jobs[contact]
	if !ok {
		return nil, nil, t.missing(contact)
	}
	ch := make(chan Event, 16)
	e.subs = append(e.subs, ch)
	cancel := func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		for i, c := range e.subs {
			if c == ch {
				e.subs = append(e.subs[:i], e.subs[i+1:]...)
				break
			}
		}
	}
	return ch, cancel, nil
}

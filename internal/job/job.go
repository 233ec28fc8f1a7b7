// Package job defines the job model shared by the GRAM baseline and the
// InfoGram service: the GRAM 1.1 state machine, job contact handles (the
// "GlobusID" of paper §2), status events, the journal record a job event
// is filed as, and an in-memory job table with event subscription used
// for both polling and callback notification. The table is the only
// in-memory copy of job state: a journal replays into it, folds every
// record into it (Table.Apply) and snapshots from it. An Entry is the only
// description of a change: a live transition (Table.Transition) is the
// same state record the journal writes and replays, and one function
// assigns it to the job.
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

// Record is the job table's view of one job. A journal snapshot stores
// it as JSON, under these tags.
type Record struct {
	Contact  string `json:"contact"`
	Spec     string `json:"spec,omitempty"`     // originating xRSL, for accounting and restart
	Owner    string `json:"owner,omitempty"`    // local account from the gridmap
	Identity string `json:"identity,omitempty"` // authenticated Grid identity
	State    State  `json:"state"`
	ExitCode int    `json:"exitCode,omitempty"`
	Error    string `json:"error,omitempty"`
	Stdout   string `json:"stdout,omitempty"`
	Stderr   string `json:"stderr,omitempty"`
	Restarts int    `json:"restarts,omitempty"`
	// WillRestart marks a FAILED that a restart will follow.
	WillRestart bool `json:"willRestart,omitempty"`
	// Checkpoint is the last application checkpoint the job recorded.
	Checkpoint string    `json:"checkpoint,omitempty"`
	Submitted  time.Time `json:"submitted"`
	Updated    time.Time `json:"updated"`
}

// Finished reports whether the job is DONE, or FAILED with no restart to
// follow: only a finished job may be forgotten, and only an unfinished
// one is resumed after a restart.
func (r *Record) Finished() bool {
	return r.State == Done || r.State == Failed && !r.WillRestart
}

// Kind classifies a journal record.
type Kind uint8

// Journal record kinds.
const (
	// KindSubmit records a job submission: contact, spec, identity.
	KindSubmit Kind = 1
	// KindState records a job state transition.
	KindState Kind = 2
	// KindCheckpoint records an application checkpoint blob.
	KindCheckpoint Kind = 3
)

// Entry is one journal record: the unit the journal writes, ships to a
// follower and replays, and that Table.Apply folds. Submit entries carry
// the identity fields; state entries carry the transition; checkpoint
// entries carry the blob. Time is Unix nanoseconds: an integer keeps the
// per-append encode and the recovery-path decode off the time-layout
// formatter, which dominated the append profile.
type Entry struct {
	Kind    Kind   `json:"k"`
	Time    int64  `json:"t"`
	Contact string `json:"c"`

	Spec     string `json:"spec,omitempty"`
	Owner    string `json:"owner,omitempty"`
	Identity string `json:"ident,omitempty"`

	State string `json:"state,omitempty"`
	// ExitCode is set only on terminal states, keeping exit 0
	// distinguishable from "not exited".
	ExitCode *int   `json:"exit,omitempty"`
	Error    string `json:"err,omitempty"`
	Restarts int    `json:"restarts,omitempty"`
	// WillRestart marks a FAILED that a restart will follow. Without it a
	// terminal state is final, as in every journal written before it.
	WillRestart bool `json:"willRestart,omitempty"`
	// Stdout/Stderr are pointers so "unchanged" (nil) and "set to empty"
	// encode differently.
	Stdout *string `json:"stdout,omitempty"`
	Stderr *string `json:"stderr,omitempty"`

	Checkpoint string `json:"ckpt,omitempty"`
}

// KeepTerminal is how many finished jobs a job table keeps answering for.
// Older ones are forgotten oldest first, as a GRAM job manager is gone
// once its job is (paper Figure 1); the audit log is the permanent record.
// Eviction is amortised: the finished set grows to 2·KeepTerminal and is
// then cut back to the newest KeepTerminal (see Expire).
const KeepTerminal = 4096

// Retiree is a finished job as the retention window sees it: the time of
// its last state change, in Unix nanoseconds, and its contact. The time
// comes from the job's journal record, so a leader, its follower and a
// recovery order their finished jobs alike.
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
// backs the middle tier's view of jobs in both GRAM and InfoGram, and it
// is the only in-memory copy of them: a journal replays into it and
// snapshots from it.
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
	finished bool // rec.Finished(), as last counted
}

// NewTable creates a table issuing contacts under the given host:port
// string, mirroring how GRAM job contacts embed the job manager address.
// An empty host makes a table with none yet (see Bind).
func NewTable(host string) *Table {
	return &Table{jobs: make(map[string]*entry), prefix: "gram://" + host + "/"}
}

// Bind sets the host a table made with none (a journal's, filled by
// replay) issues contacts under. Until then every host's contacts count
// as the table's own, so job ids resume above all of them: contacts held
// before a restart, forgotten ones included, are never issued again.
// Bind must precede NewContact.
func (t *Table) Bind(host string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.prefix = "gram://" + host + "/"
}

// LastID is the last job id the table has issued or counted as its own
// (see Bind). A journal snapshot records it for Restore.
func (t *Table) LastID() uint64 { return t.seq.Load() }

// NewContact allocates a fresh job contact handle. The layout follows the
// GRAM convention of address + job id + timestamp.
func (t *Table) NewContact(now time.Time) string {
	id := t.seq.Add(1)
	var buf [128]byte
	b := append(buf[:0], t.prefix...)
	b = strconv.AppendUint(b, id, 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, now.UnixNano(), 10)
	return string(b)
}

// noteLocked moves the job-id sequence above the id of a contact the
// table now holds, if the table issued it. Caller holds mu.
func (t *Table) noteLocked(contact string) {
	if seq, ok := t.issuedSeq(contact); ok {
		t.raiseSeq(seq)
	}
}

// raiseSeq moves the job-id sequence up to id.
func (t *Table) raiseSeq(id uint64) {
	for cur := t.seq.Load(); id > cur && !t.seq.CompareAndSwap(cur, id); cur = t.seq.Load() {
	}
}

// issuedSeq returns the job id of a contact in this table's layout and
// under its host, any host while the table has none; ok is false for any
// other contact.
func (t *Table) issuedSeq(contact string) (seq uint64, ok bool) {
	rest, ok := strings.CutPrefix(contact, t.prefix)
	if t.prefix == "gram:///" { // NewTable(""): no host yet
		if rest, ok = strings.CutPrefix(contact, "gram://"); ok {
			_, rest, ok = strings.Cut(rest, "/")
		}
	}
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

// Restore loads the jobs of a journal snapshot, replacing any held under
// the same contacts, and raises LastID to lastID. The window is applied
// once all are in: a snapshot written before it existed may hold any
// number of finished jobs, and the newest KeepTerminal of them stay.
func (t *Table) Restore(recs []Record, lastID uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rec := range recs {
		if old, ok := t.jobs[rec.Contact]; ok && old.finished {
			t.finished--
		}
		e := &entry{rec: rec, finished: rec.Finished()}
		t.jobs[rec.Contact] = e
		t.noteLocked(rec.Contact)
		if e.finished {
			t.finished++
		}
	}
	t.raiseSeq(lastID)
	if t.finished >= 2*KeepTerminal {
		t.expireLocked()
	}
}

// Apply folds one journal record into the table. It is the one fold: a
// journal runs it for every record it appends, replays or receives from
// a leader. A submission creates its job, a state record moves it, a
// checkpoint record stores the blob, and each stamps the job's Updated
// with its own time. A record for a contact the table does not hold is
// ignored unless it is a submission: its job was forgotten, or its
// history is damaged.
//
// Records fold as journaled, without the state machine's check: the
// journal leaves out a first attempt's PENDING and ACTIVE, so an
// UNSUBMITTED job may read DONE next. The exception is a terminal job. A
// state record moves it only where validTransition allows, so DONE stays
// DONE and FAILED takes only a restart's PENDING: a record made before
// its job finished but journaled after cannot revive it. Apply notifies
// no subscriber.
func (t *Table) Apply(e Entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ent, ok := t.jobs[e.Contact]
	if !ok {
		if e.Kind != KindSubmit {
			return
		}
		ent = &entry{rec: Record{Contact: e.Contact, Submitted: time.Unix(0, e.Time)}}
		t.jobs[e.Contact] = ent
		t.noteLocked(e.Contact)
	}
	rec := &ent.rec
	switch e.Kind {
	case KindSubmit:
		rec.Spec, rec.Owner, rec.Identity = e.Spec, e.Owner, e.Identity
		rec.Updated = time.Unix(0, e.Time)
	case KindState:
		st, err := ParseState(e.State)
		if err != nil {
			st = rec.State // an unreadable state moves no state
		} else if rec.State.Terminal() && !validTransition(rec.State, st) {
			return
		}
		rec.setState(st, &e)
	case KindCheckpoint:
		rec.Checkpoint = e.Checkpoint
		rec.Updated = time.Unix(0, e.Time)
	default:
		return
	}
	t.countLocked(ent)
}

// setState assigns state record e, whose state is st, to the job: the one
// rule by which a job changes state, live (Transition) or folded (Apply).
// An exit code and output change only where e carries them.
func (r *Record) setState(st State, e *Entry) {
	r.State = st
	if e.ExitCode != nil {
		r.ExitCode = *e.ExitCode
	}
	r.Error = e.Error
	r.Restarts = e.Restarts
	r.WillRestart = e.WillRestart
	if e.Stdout != nil {
		r.Stdout = *e.Stdout
	}
	if e.Stderr != nil {
		r.Stderr = *e.Stderr
	}
	r.Updated = time.Unix(0, e.Time)
}

// countLocked brings e's place in the window up to date with its record.
// Once 2·KeepTerminal jobs are finished it forgets all but the newest
// KeepTerminal of them. Caller holds mu.
func (t *Table) countLocked(e *entry) {
	finished := e.rec.Finished()
	if e.finished == finished {
		return
	}
	e.finished = finished
	if !finished {
		t.finished--
		return
	}
	if t.finished++; t.finished >= 2*KeepTerminal {
		t.expireLocked()
	}
}

// expireLocked forgets all but the newest KeepTerminal finished jobs (see
// Expire). Caller holds mu.
func (t *Table) expireLocked() {
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

// Range calls fn with every job, in no set order, under the table's read
// lock: fn must not call into the table.
func (t *Table) Range(fn func(rec *Record)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, e := range t.jobs {
		fn(&e.rec)
	}
}

// Len returns the number of jobs in the table.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.jobs)
}

// Transition applies state record e, a live change of e.Contact's job, if
// the state machine allows it, and notifies subscribers. The job's record
// ends as Apply leaves it for e: the journal writes e, and a follower or a
// recovery folds it. A record whose restart count is below the job's is
// refused, so a change made during an earlier attempt cannot hand a job
// its spent restarts back.
func (t *Table) Transition(e Entry) (Event, error) {
	return t.transition(e, false)
}

// Resume is Transition for the PENDING with which recovery re-queues an
// unfinished job: the attempt the job was in ended with the process that
// ran it, so the job may leave any state short of finished, and recovery
// sets the attempt it resumes from.
func (t *Table) Resume(e Entry) (Event, error) {
	return t.transition(e, true)
}

func (t *Table) transition(e Entry, resume bool) (Event, error) {
	if e.Kind != KindState {
		return Event{}, fmt.Errorf("job: a kind %d record is no transition", e.Kind)
	}
	st, err := ParseState(e.State)
	if err != nil {
		return Event{}, err
	}
	t.mu.Lock()
	ent, ok := t.jobs[e.Contact]
	if !ok {
		t.mu.Unlock()
		return Event{}, t.missing(e.Contact)
	}
	rec := &ent.rec
	allowed := validTransition(rec.State, st) && e.Restarts >= rec.Restarts
	if resume {
		allowed = st == Pending && !ent.finished
	}
	if !allowed {
		t.mu.Unlock()
		return Event{}, fmt.Errorf("job: invalid transition %s (restarts %d) -> %s (restarts %d) for %q",
			rec.State, rec.Restarts, st, e.Restarts, e.Contact)
	}
	rec.setState(st, &e)
	ev := Event{
		Contact:  e.Contact,
		State:    st,
		ExitCode: rec.ExitCode,
		Error:    rec.Error,
		Restarts: rec.Restarts,
		Time:     rec.Updated,
	}
	subs := make([]chan Event, len(ent.subs))
	copy(subs, ent.subs)
	t.countLocked(ent)
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

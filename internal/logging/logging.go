// Package logging implements the InfoGram logging service of Figure 3:
// an append-only log that records job submissions, state changes,
// checkpoints, and authenticated information queries, for "simple Grid
// accounting" (§6) and "logging authenticated information queries to guide
// the use as part of intelligent scheduling services" (§7).
//
// The log is an accounting export, never a restart source. The paper
// restarts the service and its jobs from the log (§6, §6.1); here that is
// the journal's job (package journal), which is the master copy of job
// state. The job manager builds one journal.Entry per job event and hands
// it to AppendEntry, which renders it as the log line, so the two never
// disagree about what happened.
//
// Records are JSON lines so the log is greppable and stream-appendable;
// "[p]resently, we only record minimal information such as the command
// used and arguments executed" — we record the full xRSL source, the
// authenticated identity, and state transitions.
package logging

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"infogram/internal/journal"
)

// Kind classifies a log record.
type Kind string

// Log record kinds.
const (
	// KindSubmit records a job submission with its xRSL and identity.
	KindSubmit Kind = "submit"
	// KindState records a job state transition.
	KindState Kind = "state"
	// KindInfoQuery records an authenticated information query.
	KindInfoQuery Kind = "info-query"
	// KindCheckpoint records an application checkpoint blob.
	KindCheckpoint Kind = "checkpoint"
	// KindServiceStart marks a service (re)start, so a reader can tell
	// which run wrote the lines that follow.
	KindServiceStart Kind = "service-start"
)

// Record is one log line.
type Record struct {
	Time     time.Time `json:"time"`
	Kind     Kind      `json:"kind"`
	Contact  string    `json:"contact,omitempty"`
	Spec     string    `json:"spec,omitempty"`
	Owner    string    `json:"owner,omitempty"`
	Identity string    `json:"identity,omitempty"`
	State    string    `json:"state,omitempty"`
	// ExitCode is nil when no exit code applies (non-terminal states); a
	// pointer keeps a successful exit (code 0) distinguishable from "no
	// exit code" in the JSON encoding.
	ExitCode *int   `json:"exitCode,omitempty"`
	Error    string `json:"error,omitempty"`
	Restarts int    `json:"restarts,omitempty"`
	// Keywords lists the queried providers for info-query records.
	Keywords []string `json:"keywords,omitempty"`
	// Checkpoint carries opaque application checkpoint data.
	Checkpoint string `json:"checkpoint,omitempty"`
	// Trace is the telemetry trace ID of the request that produced the
	// record, joining the log line to the request's span tree in the
	// trace store. Empty when the request ran untraced.
	Trace string `json:"trace,omitempty"`
}

// Logger appends records to a writer. It is safe for concurrent use, and
// safe on a nil receiver (appends are no-ops), so callers need no "is
// logging enabled" branches.
type Logger struct {
	mu sync.Mutex
	w  io.Writer
	f  *os.File // non-nil when backed by a file we own
}

// NewLogger logs to w.
func NewLogger(w io.Writer) *Logger { return &Logger{w: w} }

// OpenFile opens (appending, creating) a log file at path.
func OpenFile(path string) (*Logger, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("logging: open: %w", err)
	}
	return &Logger{w: f, f: f}, nil
}

// Append writes one record.
func (l *Logger) Append(r Record) error {
	if l == nil {
		return nil
	}
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("logging: encode: %w", err)
	}
	b = append(b, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.w.Write(b); err != nil {
		return fmt.Errorf("logging: append: %w", err)
	}
	return nil
}

// AppendEntry writes the line for one job event: the journal entry
// rendered as the Record the log has always held for it. Only a submit line
// carries trace, the ID of the request that submitted the job; the job's
// later lines join it by contact.
func (l *Logger) AppendEntry(e journal.Entry, trace string) error {
	if l == nil {
		return nil
	}
	r := Record{Time: time.Unix(0, e.Time), Contact: e.Contact}
	switch e.Kind {
	case journal.KindSubmit:
		r.Kind, r.Spec, r.Owner, r.Identity, r.Trace = KindSubmit, e.Spec, e.Owner, e.Identity, trace
	case journal.KindState:
		r.Kind, r.State, r.ExitCode, r.Error, r.Restarts = KindState, e.State, e.ExitCode, e.Error, e.Restarts
	case journal.KindCheckpoint:
		r.Kind, r.Checkpoint = KindCheckpoint, e.Checkpoint
	}
	return l.Append(r)
}

// Close closes the underlying file when owned.
func (l *Logger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Replay reads every record from r in order. A final line that fails to
// parse — the signature of a crash mid-append, where the process died
// before the record (or its newline) hit the disk — is dropped so
// accounting can proceed from the intact prefix; an unparsable line in the
// middle of the log is genuine corruption and still fails the replay.
func Replay(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var out []Record
	line := 0
	badLine := 0 // most recent unparsable line, 0 when none pending
	var badErr error
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if badLine != 0 {
			// The bad line was not the tail after all.
			return nil, fmt.Errorf("logging: replay line %d: %w", badLine, badErr)
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			badLine, badErr = line, err
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("logging: replay: %w", err)
	}
	return out, nil
}

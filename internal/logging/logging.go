// Package logging implements the InfoGram logging service of Figure 3:
// an append-only log that records job submissions, state changes, and
// authenticated information queries. The log serves three paper purposes:
// restarting the service after a shutdown ("the log can be used to restart
// our InfoGRAM service in case it needs to be restarted", §6), restarting
// individual jobs upon failure (§6.1), and simple Grid accounting ("We
// intend to use this logging service to provide simple Grid accounting",
// §6; "logging authenticated information queries to guide the use as part
// of intelligent scheduling services", §7).
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
	"sort"
	"sync"
	"time"

	"infogram/internal/job"
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
	// KindServiceStart marks a service (re)start, delimiting recovery.
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

// IntPtr adapts a plain exit code to the Record.ExitCode field.
func IntPtr(n int) *int { return &n }

// Logger appends records to a writer. It is safe for concurrent use.
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

// Sync flushes to stable storage when file-backed.
func (l *Logger) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	return l.f.Sync()
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
// before the record (or its newline) hit the disk — is dropped so a
// restart can proceed from the intact prefix; an unparsable line in the
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

// ReplayFile reads a log file.
func ReplayFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("logging: open: %w", err)
	}
	defer f.Close()
	return Replay(f)
}

// RecoveredJob is a job reconstructed from the log that had not reached a
// terminal state when the service stopped; the restarted service
// resubmits it (paper §6: "the log can be used to restart our InfoGRAM
// service"; §10: "automatic restart capabilities enabled through
// checkpointing").
type RecoveredJob struct {
	Contact    string
	Spec       string
	Owner      string
	Identity   string
	LastState  job.State
	Restarts   int
	Checkpoint string // latest checkpoint blob, if any
}

// Recover scans records and returns the jobs needing restart, in first-
// submission order.
func Recover(records []Record) []RecoveredJob {
	type track struct {
		rj       RecoveredJob
		order    int
		terminal bool
	}
	jobs := make(map[string]*track)
	order := 0
	for _, r := range records {
		switch r.Kind {
		case KindSubmit:
			jobs[r.Contact] = &track{
				rj: RecoveredJob{
					Contact:   r.Contact,
					Spec:      r.Spec,
					Owner:     r.Owner,
					Identity:  r.Identity,
					LastState: job.Pending,
				},
				order: order,
			}
			order++
		case KindState:
			t, ok := jobs[r.Contact]
			if !ok {
				continue
			}
			st, err := job.ParseState(r.State)
			if err != nil {
				continue
			}
			t.rj.LastState = st
			t.rj.Restarts = r.Restarts
			t.terminal = st.Terminal()
		case KindCheckpoint:
			if t, ok := jobs[r.Contact]; ok {
				t.rj.Checkpoint = r.Checkpoint
			}
		}
	}
	var pending []*track
	for _, t := range jobs {
		if !t.terminal {
			pending = append(pending, t)
		}
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].order < pending[j].order })
	out := make([]RecoveredJob, len(pending))
	for i, t := range pending {
		out[i] = t.rj
	}
	return out
}

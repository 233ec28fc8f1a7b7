// Package journal is the gatekeeper's durable job-state layer: a
// crash-safe write-ahead journal plus periodic snapshots, closing the gap
// the paper's phase-2 goal names ("improve the reliability of the job
// execution", §7). Every job submission and state transition is appended
// to the journal before the service acknowledges it, so a gatekeeper crash
// loses no accepted job: on restart the service replays the latest
// snapshot plus the journal tail, rebuilds its job table (terminal jobs
// keep their recorded output), and resubmits every non-terminal job
// through the scheduler, honoring the xRSL restart=N attempt budget
// (§6.1).
//
// On-disk layout under the state directory:
//
//	journal-00000000.seg   length+CRC32C framed records, JSON payloads
//	journal-00000001.seg   ...
//	snapshot.json          folded job state + the first uncovered segment
//
// Records are framed as a little-endian uint32 payload length, a uint32
// CRC32C (Castagnoli) of the payload, then the payload. A torn frame at
// the tail of the newest segment — the signature of a crash mid-append —
// is dropped so recovery proceeds from the intact prefix; a bad frame
// anywhere else is genuine corruption and fails recovery. Appends never
// continue into a replayed segment: each process epoch opens a fresh one,
// so a torn tail can never be followed by valid data.
//
// Snapshots bound recovery time by live state rather than append history:
// every SnapshotEvery appends the journal rotates, writes the folded state
// of every job to snapshot.json (atomically, via rename), and deletes the
// segments the snapshot now covers.
//
// The fsync policy trades durability against append latency: "always"
// writes and syncs before every append returns (no acknowledged record can
// be lost to power failure); "interval" group-commits — appends land in a
// process buffer and a timer flushes and syncs them every FsyncInterval,
// so any crash (process or power) loses at most one interval of records;
// "never" hands every append to the OS immediately but leaves syncing to
// it (a process crash loses nothing, power failure loses the page cache).
package journal

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"infogram/internal/clock"
	"infogram/internal/faultinject"
	"infogram/internal/job"
	"infogram/internal/telemetry"
)

// Policy selects when appended records are fsynced to stable storage.
type Policy int

// Fsync policies.
const (
	// FsyncInterval group-commits: appends return after landing in a
	// process buffer, and a timer flushes and syncs the buffer every
	// Options.FsyncInterval. The default.
	FsyncInterval Policy = iota
	// FsyncAlways syncs before every append returns.
	FsyncAlways
	// FsyncNever never calls fsync; the OS flushes at its leisure.
	FsyncNever
)

// String renders the policy as its flag value.
func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	}
	return "interval"
}

// ParsePolicy converts a -fsync flag value to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return FsyncInterval, fmt.Errorf("journal: unknown fsync policy %q (want always, interval, or never)", s)
}

// Kind classifies a journal entry.
type Kind uint8

// Journal entry kinds.
const (
	// KindSubmit records a job submission: contact, spec, identity.
	KindSubmit Kind = 1
	// KindState records a job state transition.
	KindState Kind = 2
	// KindCheckpoint records an application checkpoint blob.
	KindCheckpoint Kind = 3
)

// Entry is one journal record. Submit entries carry the identity fields;
// state entries carry the transition; checkpoint entries carry the blob.
// Time is Unix nanoseconds: an integer keeps the per-append encode and the
// recovery-path decode off the time-layout formatter, which dominated the
// append profile.
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
	// Stdout/Stderr are pointers so "unchanged" and "set to empty" encode
	// differently, mirroring job.Mutation.
	Stdout *string `json:"stdout,omitempty"`
	Stderr *string `json:"stderr,omitempty"`

	Checkpoint string `json:"ckpt,omitempty"`
}

// JobState is the folded view of one job: the latest value of every field
// across its journal records. It is what snapshots persist and what
// recovery hands back to the service.
type JobState struct {
	Contact    string    `json:"contact"`
	Spec       string    `json:"spec,omitempty"`
	Owner      string    `json:"owner,omitempty"`
	Identity   string    `json:"identity,omitempty"`
	State      job.State `json:"state"`
	ExitCode   int       `json:"exitCode,omitempty"`
	Error      string    `json:"error,omitempty"`
	Stdout     string    `json:"stdout,omitempty"`
	Stderr     string    `json:"stderr,omitempty"`
	Restarts   int       `json:"restarts,omitempty"`
	Checkpoint string    `json:"checkpoint,omitempty"`
	Submitted  time.Time `json:"submitted"`
	Updated    time.Time `json:"updated"`
}

// Recovered is the state rebuilt by Open from snapshot plus segments.
type Recovered struct {
	// Jobs holds every journaled job in first-submission order, terminal
	// and non-terminal alike (terminal ones restore STATUS answers; the
	// rest are resubmitted).
	Jobs []JobState
	// Segments counts the segment files replayed.
	Segments int
	// TornTail reports that the newest segment ended in a torn frame,
	// which recovery dropped.
	TornTail bool
}

// Options configures Open.
type Options struct {
	// Dir is the state directory (created if missing).
	Dir string
	// SegmentBytes is the rotation threshold; DefaultSegmentBytes when 0.
	SegmentBytes int64
	// Fsync is the sync policy (default FsyncInterval).
	Fsync Policy
	// FsyncInterval is the timer period for FsyncInterval;
	// DefaultFsyncInterval when 0.
	FsyncInterval time.Duration
	// SnapshotEvery is the append count between snapshot+compaction
	// cycles; DefaultSnapshotEvery when 0, negative disables snapshots.
	SnapshotEvery int64
	// Telemetry receives the journal metric families; nil disables.
	Telemetry *telemetry.Registry
	// Clock stamps internal operations; defaults to the system clock.
	Clock clock.Clock
}

// Defaults for Options zero values.
const (
	DefaultSegmentBytes  = 4 << 20
	DefaultFsyncInterval = 100 * time.Millisecond
	DefaultSnapshotEvery = 4096
)

// bufSize is the group-commit buffer for the FsyncInterval policy.
const bufSize = 64 << 10

// snapshotBacklogFactor is how many appends a snapshot must be "earned" by
// per folded job before one runs: rewriting the whole state is only worth
// it once the journal tail is a multiple of the state it would replace
// (the rewrite-when-doubled rule append-only-file stores use). A history
// of submit+terminal pairs never reaches the multiple, and correctly so —
// its snapshot would be as long as the tail it replaces.
const snapshotBacklogFactor = 2

// maxRecordBytes rejects absurd frame lengths during replay (a corrupt
// header would otherwise demand gigabytes).
const maxRecordBytes = 16 << 20

// ErrClosed is returned by appends after Close.
var ErrClosed = errors.New("journal: closed")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	segPrefix    = "journal-"
	segSuffix    = ".seg"
	snapshotName = "snapshot.json"
	frameHeader  = 8 // uint32 length + uint32 crc
)

// Journal is an open write-ahead journal. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops), so callers need no
// "is durability enabled" branches.
type Journal struct {
	opts Options

	mu  sync.Mutex
	seg *os.File
	// buf group-commits appends under the FsyncInterval policy; nil for
	// the other policies, which write straight to seg.
	buf *bufio.Writer
	// encBuf is the reusable frame-encoding scratch buffer (guarded by mu).
	encBuf    []byte
	segIndex  int
	segBytes  int64
	sinceSnap int64
	dirty     bool // unsynced writes (interval policy)
	closed    bool
	// state holds live (non-terminal) jobs; terminal jobs move to retired
	// as pre-marshaled JobState JSON. A long-lived gatekeeper folds every
	// job it ever ran, and keeping the terminal majority as pointer-free
	// blobs instead of 10-pointer structs keeps the GC's scan work (and
	// snapshot marshaling) proportional to live jobs, not history.
	state   map[string]*JobState
	retired map[string][]byte
	order   []string // contacts in first-submission order

	// taps are live replication subscribers (see repl.go).
	taps []*Tap

	stop chan struct{}
	done chan struct{}

	appends      *telemetry.Counter
	appendErrors *telemetry.Counter
	fsyncSeconds *telemetry.Histogram
	recovered    *telemetry.Counter
	segments     *telemetry.Gauge
	snapshots    *telemetry.Counter
	snapshotJobs *telemetry.Gauge
}

// Open creates or reopens a journal in opts.Dir, replays whatever state is
// on disk, and starts a fresh segment for this process epoch. The returned
// Recovered holds the folded pre-crash state; the journal's future
// snapshots keep covering it.
func Open(opts Options) (*Journal, *Recovered, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("journal: no state directory")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = DefaultFsyncInterval
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	if opts.Clock == nil {
		opts.Clock = clock.System
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: state dir: %w", err)
	}

	j := &Journal{
		opts:    opts,
		state:   make(map[string]*JobState),
		retired: make(map[string][]byte),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	j.bindTelemetry(opts.Telemetry)

	rec, nextSeg, err := j.replay()
	if err != nil {
		return nil, nil, err
	}
	j.segIndex = nextSeg
	if err := j.openSegment(); err != nil {
		return nil, nil, err
	}
	j.updateSegmentGauge()

	if opts.Fsync == FsyncInterval {
		go j.fsyncLoop()
	} else {
		close(j.done)
	}
	return j, rec, nil
}

func (j *Journal) bindTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	j.appends = reg.Counter("infogram_journal_appends_total", "job-state records appended to the write-ahead journal")
	j.appendErrors = reg.Counter("infogram_journal_append_errors_total", "journal appends that failed (record not durable)")
	j.fsyncSeconds = reg.Histogram("infogram_journal_fsync_seconds", "journal fsync latency")
	j.recovered = reg.Counter("infogram_journal_recovered_jobs_total", "non-terminal jobs replayed from the journal and resubmitted at boot")
	j.segments = reg.Gauge("infogram_journal_segments", "journal segment files on disk")
	j.snapshots = reg.Counter("infogram_journal_snapshots_total", "snapshot+compaction cycles completed")
	j.snapshotJobs = reg.Gauge("infogram_journal_snapshot_jobs", "jobs folded into the latest snapshot")
}

// NoteRecovered counts jobs resubmitted by boot-time recovery into
// infogram_journal_recovered_jobs_total.
func (j *Journal) NoteRecovered(n int) {
	if j == nil {
		return
	}
	j.recovered.Add(int64(n))
}

// Dir returns the state directory.
func (j *Journal) Dir() string {
	if j == nil {
		return ""
	}
	return j.opts.Dir
}

// Append journals one entry. Under FsyncAlways the record is on stable
// storage before Append returns; under FsyncNever it is handed to the OS;
// under FsyncInterval it is group-committed — buffered in-process and
// flushed+synced by the interval timer, so a crash loses at most one
// interval of appends. An error means the record is NOT durable and the
// caller must not acknowledge the operation it records. Nil-safe: a nil
// journal accepts everything. A traced append records a "journal.append"
// span (with the fsync, if any, as a child).
func (j *Journal) Append(ctx context.Context, e Entry) error {
	if j == nil {
		return nil
	}
	ctx, sp := telemetry.StartSpan(ctx, "journal.append")
	err := j.append(ctx, e)
	if sp != nil {
		if err != nil {
			sp.Fail(err.Error())
		}
		sp.End()
	}
	return err
}

func (j *Journal) append(ctx context.Context, e Entry) error {
	if _, err := faultinject.Eval(ctx, faultinject.JournalAppend); err != nil {
		j.appendErrors.Inc()
		return fmt.Errorf("journal: append: %w", err)
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		j.appendErrors.Inc()
		return ErrClosed
	}
	// Encode into the journal's scratch buffer (safe under mu), framing
	// header first so payload length and CRC can be patched in afterwards.
	frame := appendEntry(BeginFrame(j.encBuf[:0]), e)
	j.encBuf = frame
	FinishFrame(frame)
	if j.segBytes > 0 && j.segBytes+int64(len(frame)) > j.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			j.appendErrors.Inc()
			return err
		}
	}
	if err := j.writeLocked(frame); err != nil {
		j.appendErrors.Inc()
		return fmt.Errorf("journal: append: %w", err)
	}
	j.segBytes += int64(len(frame))
	j.applyLocked(e)
	j.notifyTapsLocked(frame[frameHeader:])
	j.appends.Inc()
	j.dirty = true
	if j.opts.Fsync == FsyncAlways {
		if err := j.syncLocked(ctx); err != nil {
			j.appendErrors.Inc()
			return err
		}
	}
	j.sinceSnap++
	// A snapshot costs O(folded jobs), so it must be earned by a multiple
	// of that many appends (as well as the configured floor) — otherwise a
	// long-lived service whose history keeps growing would re-marshal the
	// whole past every fixed interval, turning appends quadratic. Requiring
	// tail length >= a multiple of state size amortizes the rewrite to O(1)
	// per append, the same trigger rule as append-only-file rewrites in
	// production stores.
	if j.opts.SnapshotEvery > 0 && j.sinceSnap >= j.opts.SnapshotEvery &&
		j.sinceSnap >= snapshotBacklogFactor*int64(len(j.state)+len(j.retired)) {
		// Compaction failures must not fail the append: the record is
		// already durable in the current segment.
		_ = j.snapshotLocked(ctx)
	}
	return nil
}

// Snapshot forces a snapshot+compaction cycle immediately.
func (j *Journal) Snapshot() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.snapshotLocked(context.Background())
}

// Sync forces an fsync of the current segment.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.syncLocked(context.Background())
}

// Close stops the fsync loop, syncs, and closes the current segment.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	for len(j.taps) > 0 {
		j.dropTapLocked(j.taps[0])
	}
	syncErr := j.flushLocked()
	if err := j.seg.Sync(); syncErr == nil {
		syncErr = err
	}
	closeErr := j.seg.Close()
	j.mu.Unlock()
	close(j.stop)
	<-j.done
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Jobs returns the current folded state of every journaled job in
// first-submission order (primarily for tests and tooling).
func (j *Journal) Jobs() []JobState {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]JobState, 0, len(j.order))
	for _, c := range j.order {
		if js, ok := j.jobStateLocked(c); ok {
			out = append(out, js)
		}
	}
	return out
}

// Has reports whether the journal holds a record of the contact, live or
// terminal. A nil journal knows nothing.
func (j *Journal) Has(contact string) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	_, live := j.state[contact]
	_, retired := j.retired[contact]
	return live || retired
}

// fsyncLoop is the FsyncInterval background syncer. It flushes the
// group-commit buffer under the lock but syncs outside it: an fsync can
// take milliseconds, and holding the append mutex across it would stall
// every submission that lands during the sync — the exact latency the
// interval policy exists to avoid.
func (j *Journal) fsyncLoop() {
	defer close(j.done)
	t := time.NewTicker(j.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			j.mu.Lock()
			if j.closed || !j.dirty {
				j.mu.Unlock()
				continue
			}
			if err := j.flushLocked(); err != nil {
				j.mu.Unlock()
				continue
			}
			j.dirty = false
			seg := j.seg
			j.mu.Unlock()
			start := j.opts.Clock.Now()
			// The sync can race a rotation closing this segment; rotation
			// itself syncs before closing, so a "file already closed" error
			// here loses nothing.
			if err := seg.Sync(); err == nil {
				j.fsyncSeconds.Observe(j.opts.Clock.Now().Sub(start))
			}
		case <-j.stop:
			return
		}
	}
}

// writeLocked appends raw bytes to the current segment, through the
// group-commit buffer when the policy has one. Caller holds mu.
func (j *Journal) writeLocked(b []byte) error {
	if j.buf != nil {
		_, err := j.buf.Write(b)
		return err
	}
	_, err := j.seg.Write(b)
	return err
}

// flushLocked drains the group-commit buffer to the OS. Caller holds mu.
func (j *Journal) flushLocked() error {
	if j.buf == nil {
		return nil
	}
	return j.buf.Flush()
}

// syncLocked flushes any buffered appends and fsyncs the current segment.
// Caller holds mu. A traced sync records a "journal.fsync" span.
func (j *Journal) syncLocked(ctx context.Context) error {
	ctx, sp := telemetry.StartSpan(ctx, "journal.fsync")
	err := j.syncRunLocked(ctx)
	if sp != nil {
		if err != nil {
			sp.Fail(err.Error())
		}
		sp.End()
	}
	return err
}

func (j *Journal) syncRunLocked(ctx context.Context) error {
	if _, err := faultinject.Eval(ctx, faultinject.JournalFsync); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	if err := j.flushLocked(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	start := j.opts.Clock.Now()
	err := j.seg.Sync()
	j.fsyncSeconds.Observe(j.opts.Clock.Now().Sub(start))
	if err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.dirty = false
	return nil
}

// applyLocked folds one entry into the in-memory state. Caller holds mu.
func (j *Journal) applyLocked(e Entry) {
	js, ok := j.state[e.Contact]
	if !ok {
		if blob, wasRetired := j.retired[e.Contact]; wasRetired {
			// A record for a terminal job: a restart (FAILED -> PENDING) or
			// a replayed history. Revive the blob so the fold continues.
			js = &JobState{}
			if err := json.Unmarshal(blob, js); err != nil {
				return
			}
			delete(j.retired, e.Contact)
			j.state[e.Contact] = js
		} else if e.Kind != KindSubmit {
			// A state or checkpoint record for a contact the journal never
			// saw submitted: tampered history; ignore rather than invent a
			// job with no spec.
			return
		} else {
			js = &JobState{Contact: e.Contact, Submitted: time.Unix(0, e.Time)}
			j.state[e.Contact] = js
			j.order = append(j.order, e.Contact)
		}
	}
	switch e.Kind {
	case KindSubmit:
		js.Spec = e.Spec
		js.Owner = e.Owner
		js.Identity = e.Identity
		js.Updated = time.Unix(0, e.Time)
	case KindState:
		if st, err := job.ParseState(e.State); err == nil {
			js.State = st
		}
		if e.ExitCode != nil {
			js.ExitCode = *e.ExitCode
		}
		js.Error = e.Error
		js.Restarts = e.Restarts
		if e.Stdout != nil {
			js.Stdout = *e.Stdout
		}
		if e.Stderr != nil {
			js.Stderr = *e.Stderr
		}
		js.Updated = time.Unix(0, e.Time)
	case KindCheckpoint:
		js.Checkpoint = e.Checkpoint
		js.Updated = time.Unix(0, e.Time)
	}
	if js.State.Terminal() {
		j.retired[e.Contact] = appendJobState(nil, js)
		delete(j.state, e.Contact)
	}
}

// jobStateLocked returns the folded state of one contact, live or retired.
// Caller holds mu.
func (j *Journal) jobStateLocked(contact string) (JobState, bool) {
	if js, ok := j.state[contact]; ok {
		return *js, true
	}
	if blob, ok := j.retired[contact]; ok {
		var js JobState
		if err := json.Unmarshal(blob, &js); err == nil {
			return js, true
		}
	}
	return JobState{}, false
}

// segPath names segment i.
func (j *Journal) segPath(i int) string {
	return filepath.Join(j.opts.Dir, fmt.Sprintf("%s%08d%s", segPrefix, i, segSuffix))
}

// openSegment opens segment j.segIndex fresh for appending.
func (j *Journal) openSegment() error {
	f, err := os.OpenFile(j.segPath(j.segIndex), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	j.seg = f
	j.segBytes = 0
	if j.opts.Fsync == FsyncInterval {
		if j.buf == nil {
			j.buf = bufio.NewWriterSize(f, bufSize)
		} else {
			j.buf.Reset(f)
		}
	}
	return nil
}

// rotateLocked closes the current segment and opens the next. Caller
// holds mu. The finished segment is synced and closed off the append
// path: its bytes are already with the OS, and a multi-megabyte fsync
// under the append lock would stall every submission that arrives while
// it runs.
func (j *Journal) rotateLocked() error {
	if err := j.flushLocked(); err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	go func(f *os.File) {
		_ = f.Sync()
		_ = f.Close()
	}(j.seg)
	j.segIndex++
	if err := j.openSegment(); err != nil {
		return err
	}
	j.updateSegmentGauge()
	return nil
}

// snapshot is the on-disk snapshot file format.
type snapshot struct {
	// NextSeg is the first segment index NOT covered by this snapshot;
	// recovery replays only segments >= NextSeg.
	NextSeg int        `json:"nextSeg"`
	Jobs    []JobState `json:"jobs"`
}

// snapshotLocked rotates, persists the folded state, and deletes the
// segments the snapshot now covers. Caller holds mu.
func (j *Journal) snapshotLocked(ctx context.Context) error {
	if err := j.rotateLocked(); err != nil {
		return err
	}
	// Retired jobs are already marshaled; splicing their blobs in as raw
	// JSON keeps the snapshot cost proportional to live jobs. The on-disk
	// format is identical to marshaling a []JobState.
	rawSnap := struct {
		NextSeg int               `json:"nextSeg"`
		Jobs    []json.RawMessage `json:"jobs"`
	}{NextSeg: j.segIndex, Jobs: make([]json.RawMessage, 0, len(j.order))}
	for _, c := range j.order {
		if js, ok := j.state[c]; ok {
			rawSnap.Jobs = append(rawSnap.Jobs, appendJobState(nil, js))
		} else if blob, ok := j.retired[c]; ok {
			rawSnap.Jobs = append(rawSnap.Jobs, blob)
		}
	}
	b, err := json.Marshal(rawSnap)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	tmp := filepath.Join(j.opts.Dir, snapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if _, err := faultinject.Eval(ctx, faultinject.JournalFsync); err != nil {
		f.Close()
		return fmt.Errorf("journal: snapshot fsync: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	// The rename is the commit point: only after it may covered segments
	// go. A crash in between leaves extra segments behind, which recovery
	// skips via NextSeg.
	if err := os.Rename(tmp, filepath.Join(j.opts.Dir, snapshotName)); err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	for _, idx := range j.listSegments() {
		if idx < rawSnap.NextSeg {
			_ = os.Remove(j.segPath(idx))
		}
	}
	j.sinceSnap = 0
	j.snapshots.Inc()
	j.snapshotJobs.Set(int64(len(rawSnap.Jobs)))
	j.updateSegmentGauge()
	return nil
}

// listSegments returns the indices of segment files on disk, sorted.
func (j *Journal) listSegments() []int {
	entries, err := os.ReadDir(j.opts.Dir)
	if err != nil {
		return nil
	}
	var out []int
	for _, de := range entries {
		name := de.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var idx int
		if _, err := fmt.Sscanf(name, segPrefix+"%08d"+segSuffix, &idx); err != nil {
			continue
		}
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

func (j *Journal) updateSegmentGauge() {
	j.segments.Set(int64(len(j.listSegments())))
}

// replay loads the snapshot and replays uncovered segments into j.state,
// returning the recovered view and the index this epoch's fresh segment
// should use.
func (j *Journal) replay() (*Recovered, int, error) {
	rec := &Recovered{}
	nextSeg := 0

	snapPath := filepath.Join(j.opts.Dir, snapshotName)
	if b, err := os.ReadFile(snapPath); err == nil {
		var snap snapshot
		if err := json.Unmarshal(b, &snap); err != nil {
			return nil, 0, fmt.Errorf("journal: corrupt snapshot %s: %w", snapPath, err)
		}
		for i := range snap.Jobs {
			js := snap.Jobs[i]
			if js.State.Terminal() {
				j.retired[js.Contact] = appendJobState(nil, &js)
				j.order = append(j.order, js.Contact)
				continue
			}
			j.state[js.Contact] = &js
			j.order = append(j.order, js.Contact)
		}
		nextSeg = snap.NextSeg
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, 0, fmt.Errorf("journal: read snapshot: %w", err)
	}

	segs := j.listSegments()
	epoch := nextSeg
	for i, idx := range segs {
		if idx >= epoch {
			epoch = idx + 1
		}
		if idx < nextSeg {
			continue // covered by the snapshot (compaction died pre-delete)
		}
		last := i == len(segs)-1
		torn, err := j.replaySegment(j.segPath(idx), last)
		if err != nil {
			return nil, 0, err
		}
		rec.Segments++
		rec.TornTail = rec.TornTail || torn
	}

	rec.Jobs = make([]JobState, 0, len(j.order))
	for _, c := range j.order {
		if js, ok := j.jobStateLocked(c); ok {
			rec.Jobs = append(rec.Jobs, js)
		}
	}
	return rec, epoch, nil
}

// replaySegment folds one segment file into j.state. A bad frame is
// tolerated (and reported) only at the tail of the last segment.
func (j *Journal) replaySegment(path string, last bool) (torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("journal: replay: %w", err)
	}
	defer f.Close()

	fr := NewFrameReader(f, maxRecordBytes)
	for {
		payload, err := fr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return false, nil // clean end
			}
			// Torn tail and mid-file corruption get the same treatment the
			// journal has always applied: forgivable only at the tail of the
			// newest segment.
			return j.tolerateTear(path, fr.Offset(), last, err.Error())
		}
		var e Entry
		if err := json.Unmarshal(payload, &e); err != nil {
			return j.tolerateTear(path, fr.Offset(), last, "unparsable record")
		}
		j.applyLocked(e)
	}
}

// tolerateTear decides whether a bad frame is a forgivable torn tail (last
// segment) or fatal corruption (anywhere else).
func (j *Journal) tolerateTear(path string, offset int64, last bool, what string) (bool, error) {
	if last {
		return true, nil
	}
	return false, fmt.Errorf("journal: %s at %s offset %d: mid-history corruption", what, path, offset)
}

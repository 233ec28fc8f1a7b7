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
// of every job to snapshot.json (atomically, via rename), syncs the
// directory, and deletes the segments the snapshot now covers.
//
// The fold keeps a fixed window of finished jobs (job.KeepTerminal),
// forgetting the ones that finished first, so memory, snapshots and the
// segment tail are bounded by live jobs plus that window. The same rule
// runs wherever records are folded — on the leader, on a follower and at
// recovery — and it orders jobs by the time recorded with their last
// state change, so all three hold the same set.
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
	"strconv"
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
	// WillRestart marks a FAILED that a restart will follow. Without it a
	// terminal state is final, as in every journal written before it.
	WillRestart bool `json:"willRestart,omitempty"`
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
	Contact  string    `json:"contact"`
	Spec     string    `json:"spec,omitempty"`
	Owner    string    `json:"owner,omitempty"`
	Identity string    `json:"identity,omitempty"`
	State    job.State `json:"state"`
	ExitCode int       `json:"exitCode,omitempty"`
	Error    string    `json:"error,omitempty"`
	Stdout   string    `json:"stdout,omitempty"`
	Stderr   string    `json:"stderr,omitempty"`
	Restarts int       `json:"restarts,omitempty"`
	// WillRestart is the latest state record's (see Entry).
	WillRestart bool      `json:"willRestart,omitempty"`
	Checkpoint  string    `json:"checkpoint,omitempty"`
	Submitted   time.Time `json:"submitted"`
	Updated     time.Time `json:"updated"`
}

// Finished reports whether the job is DONE, or FAILED with no restart to
// follow: only a finished job may be forgotten.
func (js *JobState) Finished() bool { return js.State.Terminal() && !js.WillRestart }

// Recovered is the state rebuilt by Open from snapshot plus segments.
type Recovered struct {
	// Jobs holds every retained job in first-submission order, finished
	// and unfinished alike (finished ones restore STATUS answers; the
	// rest are resubmitted).
	Jobs []JobState
	// Segments counts the segment files replayed.
	Segments int
	// TornTail reports that the newest segment ended in a torn frame,
	// which recovery dropped and truncated away.
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
// (the rewrite-when-doubled rule append-only-file stores use). The fold
// holds at most live + 2·job.KeepTerminal jobs, so a history of
// submit+terminal pairs reaches the multiple every ≈ 2·(live + window)
// appends, and the snapshot and the segment tail stay bounded.
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
	// state holds unfinished jobs (a FAILED that will restart included);
	// finished jobs move to retired as pre-marshaled JobState JSON, which
	// keeps the GC's scan work (and snapshot marshaling) proportional to
	// live jobs rather than to the window of finished ones. At
	// 2·job.KeepTerminal retired jobs all but the newest KeepTerminal are
	// forgotten (job.Expire), and order drops them in the same pass.
	state   map[string]*JobState
	retired map[string]retiredJob
	order   []string // retained contacts in first-submission order

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
		retired: make(map[string]retiredJob),
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

// Footprint reports what the fold holds: unfinished jobs, finished jobs,
// and the length of the first-submission index. However long the journal
// runs, the last two stay within unfinished + 2·job.KeepTerminal.
func (j *Journal) Footprint() (live, finished, order int) {
	if j == nil {
		return 0, 0, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.state), len(j.retired), len(j.order)
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
		if r, wasRetired := j.retired[e.Contact]; wasRetired {
			// A record for a finished job: a restart after a FAILED
			// journaled before WillRestart existed, or a replayed history.
			// Revive the blob so the fold continues.
			js = &JobState{}
			if err := json.Unmarshal(r.blob, js); err != nil {
				return
			}
			delete(j.retired, e.Contact)
			j.state[e.Contact] = js
		} else if e.Kind != KindSubmit {
			// A state or checkpoint record for a contact the journal never
			// saw submitted, or has forgotten: tampered history, or a late
			// record for an expired job; ignore rather than invent a job
			// with no spec.
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
		js.WillRestart = e.WillRestart
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
	if js.Finished() {
		delete(j.state, e.Contact)
		j.retired[e.Contact] = retire(js)
		if len(j.retired) >= 2*job.KeepTerminal {
			j.expireLocked()
		}
	}
}

// retiredJob is a finished job as the fold keeps it: the time of its
// last state change, which orders the window, and its JobState JSON.
type retiredJob struct {
	updated int64
	blob    []byte
}

func retire(js *JobState) retiredJob {
	return retiredJob{updated: js.Updated.UnixNano(), blob: appendJobState(nil, js)}
}

// expireLocked forgets all but the newest job.KeepTerminal retired jobs
// and compacts order to the jobs still held. Caller holds mu.
func (j *Journal) expireLocked() {
	held := make([]job.Retiree, 0, len(j.retired))
	for c, r := range j.retired {
		held = append(held, job.Retiree{Updated: r.updated, Contact: c})
	}
	for _, r := range job.Expire(held) {
		delete(j.retired, r.Contact)
	}
	order := make([]string, 0, len(j.state)+len(j.retired))
	for _, c := range j.order {
		if _, ok := j.state[c]; ok {
			order = append(order, c)
		} else if _, ok := j.retired[c]; ok {
			order = append(order, c)
		}
	}
	j.order = order
}

// jobStateLocked returns the folded state of one contact, live or retired.
// Caller holds mu.
func (j *Journal) jobStateLocked(contact string) (JobState, bool) {
	if js, ok := j.state[contact]; ok {
		return *js, true
	}
	if r, ok := j.retired[contact]; ok {
		var js JobState
		if err := json.Unmarshal(r.blob, &js); err == nil {
			return js, true
		}
	}
	return JobState{}, false
}

// segPath names segment i of the journal in dir.
func segPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, i, segSuffix))
}

// openSegment opens segment j.segIndex fresh for appending.
func (j *Journal) openSegment() error {
	f, err := os.OpenFile(segPath(j.opts.Dir, j.segIndex), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
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
		} else if r, ok := j.retired[c]; ok {
			rawSnap.Jobs = append(rawSnap.Jobs, r.blob)
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
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	// The rename is the commit point, and it is durable only once the
	// directory is synced: only then may covered segments go. A crash in
	// between leaves extra segments behind, which recovery skips via
	// NextSeg. The fsync failpoint sits at this last barrier.
	if err := os.Rename(tmp, filepath.Join(j.opts.Dir, snapshotName)); err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if _, err := faultinject.Eval(ctx, faultinject.JournalFsync); err != nil {
		return fmt.Errorf("journal: snapshot fsync: %w", err)
	}
	if err := SyncDir(j.opts.Dir); err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	for _, idx := range listSegments(j.opts.Dir) {
		if idx < rawSnap.NextSeg {
			_ = os.Remove(segPath(j.opts.Dir, idx))
		}
	}
	j.sinceSnap = 0
	j.snapshots.Inc()
	j.snapshotJobs.Set(int64(len(rawSnap.Jobs)))
	j.updateSegmentGauge()
	return nil
}

// SyncDir fsyncs directory dir, making a rename into it durable. A file
// committed by rename must be synced this way before anything it
// replaces is deleted: otherwise, after a power loss, the deletions can
// survive while the rename is lost.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Discard deletes the journal in dir — its segments and snapshot — so
// the next Open there starts empty. dir must not be open as a journal.
// A hot-standby follower uses it to replace its copy with a fresh cut.
func Discard(dir string) error {
	for _, idx := range listSegments(dir) {
		if err := os.Remove(segPath(dir, idx)); err != nil {
			return fmt.Errorf("journal: discard: %w", err)
		}
	}
	for _, name := range []string{snapshotName, snapshotName + ".tmp"} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("journal: discard: %w", err)
		}
	}
	return nil
}

// listSegments returns the indices of the segment files in dir, sorted.
func listSegments(dir string) []int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []int
	for _, de := range entries {
		// The index is zero-padded to eight digits but may outgrow them.
		num, hasPrefix := strings.CutPrefix(de.Name(), segPrefix)
		num, hasSuffix := strings.CutSuffix(num, segSuffix)
		if !hasPrefix || !hasSuffix {
			continue
		}
		if idx, err := strconv.Atoi(num); err == nil {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}

func (j *Journal) updateSegmentGauge() {
	j.segments.Set(int64(len(listSegments(j.opts.Dir))))
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
			j.order = append(j.order, js.Contact)
			if js.Finished() {
				j.retired[js.Contact] = retire(&js)
			} else {
				j.state[js.Contact] = &js
			}
		}
		// A snapshot holds fewer than 2·job.KeepTerminal finished jobs,
		// unless it was written before the window existed.
		if len(j.retired) >= 2*job.KeepTerminal {
			j.expireLocked()
		}
		nextSeg = snap.NextSeg
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, 0, fmt.Errorf("journal: read snapshot: %w", err)
	}

	segs := listSegments(j.opts.Dir)
	epoch := nextSeg
	for i, idx := range segs {
		if idx >= epoch {
			epoch = idx + 1
		}
		if idx < nextSeg {
			continue // covered by the snapshot (compaction died pre-delete)
		}
		last := i == len(segs)-1
		torn, err := j.replaySegment(segPath(j.opts.Dir, idx), last)
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
// tolerated (and reported) only at the tail of the last segment, which is
// then cut back to its intact prefix.
func (j *Journal) replaySegment(path string, last bool) (torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("journal: replay: %w", err)
	}
	defer f.Close()

	fr := NewFrameReader(f, maxRecordBytes)
	for {
		offset := fr.Offset()
		payload, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return false, nil // clean end
		}
		if err == nil {
			var e Entry
			if json.Unmarshal(payload, &e) == nil {
				j.applyLocked(e)
				continue
			}
			err = fmt.Errorf("journal: unparsable record at offset %d", offset)
		}
		// Torn tail and mid-file corruption get the same treatment:
		// forgivable only at the tail of the newest segment.
		if !last {
			return false, fmt.Errorf("%w in %s: mid-history corruption", err, path)
		}
		return true, truncateTail(path, offset)
	}
}

// truncateTail cuts a forgiven torn tail off segment path at offset and
// syncs the cut. Left in place, the tear would sit mid-history once this
// epoch's fresh segment follows it, and the next recovery would refuse it.
func truncateTail(path string, offset int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("journal: truncate torn tail: %w", err)
	}
	err = f.Truncate(offset)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: truncate torn tail: %w", err)
	}
	return nil
}

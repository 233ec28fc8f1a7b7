// Package journal is the gatekeeper's durable job-state layer: a
// crash-safe write-ahead journal plus periodic snapshots, closing the gap
// the paper's phase-2 goal names ("improve the reliability of the job
// execution", §7). Every job submission and state transition is appended
// to the journal before the service acknowledges it, so a gatekeeper crash
// loses no accepted job: on restart the journal replays the latest
// snapshot plus the journal tail into the job table the service will
// serve (terminal jobs keep their recorded output), and the service
// resubmits every unfinished job through the scheduler, honoring the xRSL
// restart=N attempt budget (§6.1).
//
// On-disk layout under the state directory:
//
//	journal-00000000.seg   length+CRC32C framed records, JSON payloads
//	journal-00000001.seg   ...
//	snapshot.json          every job held + the first uncovered segment
//
// Records are framed as a little-endian uint32 payload length, a uint32
// CRC32C (Castagnoli) of the payload, then the payload. A torn frame at
// the tail of the newest segment — the signature of a crash mid-append —
// is dropped so recovery proceeds from the intact prefix; a bad frame
// anywhere else is genuine corruption and fails recovery. Appends never
// continue into a replayed segment: each process epoch opens a fresh one,
// so a torn tail can never be followed by valid data.
//
// The journal keeps no job state of its own. Open replays the snapshot
// and the segments into a job.Table, and every record appended afterwards
// is folded into that same table (job.Table.Apply): on a leader it is the
// table the service serves, on a follower the one it will serve once
// promoted. Snapshots bound recovery time by live state rather than append
// history: every SnapshotEvery appends the journal rotates, writes every
// job the table holds to snapshot.json (atomically, via rename), syncs the
// directory, and deletes the segments the snapshot now covers. The table
// keeps a fixed window of finished jobs (job.KeepTerminal), so memory,
// snapshots and the segment tail are bounded by live jobs plus that
// window, and a leader, its follower and a recovery, folding the same
// records, forget the same jobs.
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
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
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

// Kind classifies a journal entry (see job.Kind).
type Kind = job.Kind

// Journal entry kinds.
const (
	KindSubmit     = job.KindSubmit
	KindState      = job.KindState
	KindCheckpoint = job.KindCheckpoint
)

// Entry is one journal record (see job.Entry).
type Entry = job.Entry

// JobState is a job as snapshot.json stores it (see job.Record).
type JobState = job.Record

// Recovered describes what Open replayed into the journal's table.
type Recovered struct {
	// Unfinished lists, in submission order, the contacts of the replayed
	// jobs that are neither DONE nor FAILED for good: the ones recovery
	// resumes.
	Unfinished []string
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
// per job in the table before one runs: rewriting the whole state is only
// worth it once the journal tail is a multiple of the state it would
// replace (the rewrite-when-doubled rule append-only-file stores use). The
// table holds at most live + 2·job.KeepTerminal jobs, so a history of
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
// concurrent use, and all but Transition and Resume, which need the
// journal's table, are safe on a nil receiver (no-ops), so callers need
// few "is durability enabled" branches.
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
	// table holds every job the journal's records fold into. It is
	// changed only under mu, so a snapshot or a Subscribe cut taken under
	// mu matches the records written so far.
	table *job.Table

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
// on disk into a fresh job table (see Table), and starts a fresh segment
// for this process epoch. The returned Recovered names the unfinished jobs
// the replay found.
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
		opts:  opts,
		table: job.NewTable(""),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
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

// Table returns the job table the journal replayed into and folds every
// record into; nil for a nil journal. A service adopts it, binding it to
// its address (job.Table.Bind), rather than making a table of its own.
func (j *Journal) Table() *job.Table {
	if j == nil {
		return nil
	}
	return j.table
}

// Append journals one entry and then folds it into the table. Under
// FsyncAlways the record is on stable storage before Append returns; under
// FsyncNever it is handed to the OS; under FsyncInterval it is
// group-committed — buffered in-process and flushed+synced by the interval
// timer, so a crash loses at most one interval of appends. An error means
// the record is NOT durable, is not in the table, and the caller must not
// acknowledge the operation it records. Nil-safe: a nil journal accepts
// everything. A traced append records a "journal.append" span (with the
// fsync, if any, as a child).
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
	return j.commitLocked(ctx, e, true)
}

// Transition applies state record e to the table (see
// job.Table.Transition) and journals that same record, both under the
// journal lock, so the table and the journal see transitions in one
// order. A record that only repeats what recovery infers from the
// submission is not journaled (see recoveryNeutral). The returned error is
// the table's: a record that fails to append is counted and the transition
// stands — the submission is durable, and recovery re-runs a job whose
// tail transitions are missing. Like Append, it records a "journal.append"
// span.
func (j *Journal) Transition(ctx context.Context, e Entry) (job.Event, error) {
	return j.transition(ctx, e, false)
}

// Resume is Transition for the PENDING with which recovery re-queues an
// unfinished job (see job.Table.Resume).
func (j *Journal) Resume(ctx context.Context, e Entry) (job.Event, error) {
	return j.transition(ctx, e, true)
}

func (j *Journal) transition(ctx context.Context, e Entry, resume bool) (job.Event, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var ev job.Event
	var err error
	if resume {
		ev, err = j.table.Resume(e)
	} else {
		ev, err = j.table.Transition(e)
	}
	if err != nil {
		return ev, err
	}
	if recoveryNeutral(e) {
		return ev, nil
	}
	ctx, sp := telemetry.StartSpan(ctx, "journal.append")
	if _, err = faultinject.Eval(ctx, faultinject.JournalAppend); err != nil {
		j.appendErrors.Inc()
	} else {
		err = j.commitLocked(ctx, e, false)
	}
	if sp != nil {
		if err != nil {
			sp.Fail(err.Error())
		}
		sp.End()
	}
	return ev, nil
}

// recoveryNeutral reports whether e is a first-attempt PENDING, ACTIVE or
// SUSPENDED record with no restart count, no error and no output. It folds
// into exactly the state recovery infers from the submission record alone
// (unfinished, attempt zero → resubmit), so journaling it buys nothing and
// would cost two of the four per-job appends on the happy path.
func recoveryNeutral(e Entry) bool {
	return e.Kind == KindState && e.ExitCode == nil && e.Restarts == 0 &&
		e.Error == "" && e.Stdout == nil && e.Stderr == nil
}

// commitLocked writes e to the current segment, folds it into the table
// when fold is set (Transition has already applied it), and hands it to
// the taps. Under FsyncAlways it syncs first: a record whose sync fails is
// neither folded nor shipped. Caller holds mu.
func (j *Journal) commitLocked(ctx context.Context, e Entry, fold bool) error {
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
	j.dirty = true
	if j.opts.Fsync == FsyncAlways {
		if err := j.syncLocked(ctx); err != nil {
			j.appendErrors.Inc()
			return err
		}
	}
	if fold {
		j.table.Apply(e)
	}
	j.notifyTapsLocked(frame[frameHeader:])
	j.appends.Inc()
	j.sinceSnap++
	// A snapshot costs O(jobs held), so it must be earned by a multiple
	// of that many appends (as well as the configured floor) — otherwise a
	// long-lived service whose history keeps growing would re-marshal the
	// whole past every fixed interval, turning appends quadratic. Requiring
	// tail length >= a multiple of state size amortizes the rewrite to O(1)
	// per append, the same trigger rule as append-only-file rewrites in
	// production stores.
	if j.opts.SnapshotEvery > 0 && j.sinceSnap >= j.opts.SnapshotEvery &&
		j.sinceSnap >= snapshotBacklogFactor*int64(j.table.Len()) {
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
	NextSeg int `json:"nextSeg"`
	// LastID is the table's job.Table.LastID, so a restarted service
	// issues no job id it has issued before, and knows a job it forgot
	// as its own. Snapshots written before it existed lack it.
	LastID uint64     `json:"lastID,omitempty"`
	Jobs   []JobState `json:"jobs"`
}

// snapshotLocked rotates, persists every job the table holds, and deletes
// the segments the snapshot now covers. Caller holds mu.
func (j *Journal) snapshotLocked(ctx context.Context) error {
	if err := j.rotateLocked(); err != nil {
		return err
	}
	nextSeg := j.segIndex
	var jobs int
	err := ReplaceFile(filepath.Join(j.opts.Dir, snapshotName), func(w io.Writer) (err error) {
		jobs, err = j.writeSnapshot(w, nextSeg)
		return err
	})
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	// The rename is the commit point, and it is durable only once the
	// directory is synced: only then may covered segments go. A crash in
	// between leaves extra segments behind, which recovery skips via
	// NextSeg. The fsync failpoint sits at this last barrier.
	if _, err := faultinject.Eval(ctx, faultinject.JournalFsync); err != nil {
		return fmt.Errorf("journal: snapshot fsync: %w", err)
	}
	if err := SyncDir(j.opts.Dir); err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	for _, idx := range listSegments(j.opts.Dir) {
		if idx < nextSeg {
			_ = os.Remove(segPath(j.opts.Dir, idx))
		}
	}
	j.sinceSnap = 0
	j.snapshots.Inc()
	j.snapshotJobs.Set(int64(jobs))
	j.updateSegmentGauge()
	return nil
}

// writeSnapshot streams the snapshot to w, job by job, in the format
// json.Marshal of a snapshot would write, and returns how many jobs it
// wrote. Memory stays one job's encoding plus the write buffer, however
// many jobs the table holds. Caller holds mu.
func (j *Journal) writeSnapshot(w io.Writer, nextSeg int) (jobs int, err error) {
	bw := bufio.NewWriterSize(w, 32<<10)
	b := strconv.AppendInt(append(j.encBuf[:0], `{"nextSeg":`...), int64(nextSeg), 10)
	if last := j.table.LastID(); last > 0 {
		b = strconv.AppendUint(append(b, `,"lastID":`...), last, 10)
	}
	_, _ = bw.Write(append(b, `,"jobs":[`...))
	j.table.Range(func(rec *job.Record) {
		b = b[:0]
		if jobs++; jobs > 1 {
			b = append(b, ',')
		}
		b = appendJobState(b, rec)
		_, _ = bw.Write(b) // a write error sticks; Flush reports it
	})
	j.encBuf = b
	_, _ = bw.WriteString("]}")
	return jobs, bw.Flush()
}

// ReplaceFile replaces path whole: write fills path+".tmp", which is
// synced, closed and renamed over path, so a crash at any point leaves
// either the old file or the new one. On failure the temporary file is
// removed and path is untouched. The rename is durable only once the
// caller syncs the directory (SyncDir).
func ReplaceFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
	}
	return err
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

// replay loads the snapshot and replays uncovered segments into the
// table, returning what it found and the index this epoch's fresh segment
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
		j.table.Restore(snap.Jobs, snap.LastID)
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

	var unfinished []job.Record
	j.table.Range(func(r *job.Record) {
		if !r.Finished() {
			unfinished = append(unfinished, *r)
		}
	})
	slices.SortFunc(unfinished, func(a, b job.Record) int {
		return cmp.Or(a.Submitted.Compare(b.Submitted), strings.Compare(a.Contact, b.Contact))
	})
	for _, r := range unfinished {
		rec.Unfinished = append(rec.Unfinished, r.Contact)
	}
	return rec, epoch, nil
}

// replaySegment folds one segment file into the table. A bad frame is
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
				j.table.Apply(e)
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

package journal

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"infogram/internal/faultinject"
	"infogram/internal/job"
	"infogram/internal/telemetry"
)

func intPtr(n int) *int { return &n }

func strPtr(s string) *string { return &s }

func openTestJournal(t *testing.T, dir string, mutate func(*Options)) (*Journal, *Recovered) {
	t.Helper()
	opts := Options{Dir: dir, Fsync: FsyncNever}
	if mutate != nil {
		mutate(&opts)
	}
	j, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, rec
}

// submitAndFinish journals a full submit -> PENDING -> ACTIVE -> terminal
// lifecycle for one contact.
func submitAndFinish(t *testing.T, j *Journal, contact string, terminal job.State) {
	t.Helper()
	ctx := context.Background()
	now := time.Now()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(j.Append(ctx, Entry{Kind: KindSubmit, Time: now.UnixNano(), Contact: contact,
		Spec: "&(executable=noop)(jobtype=func)", Owner: "alice", Identity: "/O=Grid/CN=alice"}))
	must(j.Append(ctx, Entry{Kind: KindState, Time: now.UnixNano(), Contact: contact, State: "PENDING"}))
	must(j.Append(ctx, Entry{Kind: KindState, Time: now.UnixNano(), Contact: contact, State: "ACTIVE"}))
	must(j.Append(ctx, Entry{Kind: KindState, Time: now.UnixNano(), Contact: contact, State: terminal.String(),
		ExitCode: intPtr(0), Stdout: strPtr("out-" + contact)}))
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir, nil)
	if n := j.Table().Len(); n != 0 {
		t.Fatalf("fresh journal recovered %d jobs", n)
	}
	submitAndFinish(t, j, "c1", job.Done)
	ctx := context.Background()
	if err := j.Append(ctx, Entry{Kind: KindSubmit, Time: time.Now().UnixNano(), Contact: "c2",
		Spec: "&(executable=slow)(jobtype=func)", Owner: "bob", Identity: "/O=Grid/CN=bob"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(ctx, Entry{Kind: KindState, Time: time.Now().UnixNano(), Contact: "c2", State: "ACTIVE", Restarts: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(ctx, Entry{Kind: KindCheckpoint, Time: time.Now().UnixNano(), Contact: "c2", Checkpoint: "step=7"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec2 := openTestJournal(t, dir, nil)
	jobs := j2.Table().List()
	if len(jobs) != 2 {
		t.Fatalf("recovered %d jobs; want 2", len(jobs))
	}
	c1, c2 := jobs[0], jobs[1]
	if c1.Contact != "c1" || c2.Contact != "c2" {
		t.Fatalf("jobs recovered as %q, %q", c1.Contact, c2.Contact)
	}
	if !reflect.DeepEqual(rec2.Unfinished, []string{"c2"}) {
		t.Fatalf("unfinished = %v; want c2", rec2.Unfinished)
	}
	if c1.State != job.Done || c1.Stdout != "out-c1" || c1.Owner != "alice" {
		t.Fatalf("c1 folded wrong: %+v", c1)
	}
	if c2.State != job.Active || c2.Restarts != 1 || c2.Checkpoint != "step=7" {
		t.Fatalf("c2 folded wrong: %+v", c2)
	}
	if rec2.TornTail {
		t.Fatal("clean shutdown reported a torn tail")
	}
}

// tornFrame is a crash mid-append: a frame header promising more bytes
// than follow.
var tornFrame = []byte{0x40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'x', 'y'}

// tearNewestSegment appends tornFrame to the newest segment in dir.
func tearNewestSegment(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tornFrame); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir, nil)
	submitAndFinish(t, j, "c1", job.Done)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	tearNewestSegment(t, dir)

	j2, rec := openTestJournal(t, dir, nil)
	if !rec.TornTail {
		t.Fatal("torn tail not reported")
	}
	if jobs := j2.Table().List(); len(jobs) != 1 || jobs[0].State != job.Done {
		t.Fatalf("intact prefix lost: %+v", jobs)
	}
}

// A forgiven torn tail is cut off, not left in place: once this epoch's
// fresh segment follows it, a tear kept there would read as mid-history
// corruption and refuse the next restart.
func TestTornTailSurvivesSecondRestart(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir, nil)
	submitAndFinish(t, j, "c1", job.Done)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	tearNewestSegment(t, dir)

	j1, rec1 := openTestJournal(t, dir, nil)
	if !rec1.TornTail {
		t.Fatal("torn tail not reported")
	}
	first := j1.Table().List()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	j2, rec2, err := Open(Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("second restart after a forgiven tear: %v", err)
	}
	defer j2.Close()
	if rec2.TornTail {
		t.Error("tear reported again on the second restart")
	}
	if second := j2.Table().List(); !reflect.DeepEqual(first, second) || len(second) != 1 {
		t.Fatalf("recovered jobs differ:\nfirst  %+v\nsecond %+v", first, second)
	}
}

// Records of concurrent jobs interleave in the journal; replay folds each
// contact on its own: its latest state, restart count and checkpoint, never
// a neighbour's. A cancelled job stays terminal, and a record for a contact
// never submitted invents no job.
func TestReplayFoldsInterleavedContacts(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir, nil)
	now := time.Now().UnixNano()
	for _, e := range []Entry{
		{Kind: KindSubmit, Contact: "c1", Spec: "&(executable=/bin/a)", Owner: "alice"},
		{Kind: KindSubmit, Contact: "c2", Spec: "&(executable=/bin/b)", Owner: "bob"},
		{Kind: KindState, Contact: "ghost", State: "ACTIVE"},
		{Kind: KindState, Contact: "c1", State: "FAILED", ExitCode: intPtr(1), Error: "exit code 1 (will restart)"},
		{Kind: KindState, Contact: "c1", State: "PENDING", Restarts: 1},
		{Kind: KindCheckpoint, Contact: "c2", Checkpoint: "c2-step"},
		{Kind: KindState, Contact: "c1", State: "ACTIVE", Restarts: 1},
		{Kind: KindCheckpoint, Contact: "c1", Checkpoint: "c1-step"},
		{Kind: KindState, Contact: "c2", State: "FAILED", ExitCode: intPtr(-1), Error: "cancelled: context canceled"},
	} {
		e.Time = now
		if err := j.Append(context.Background(), e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, _ := openTestJournal(t, dir, nil)
	jobs := j2.Table().List()
	if len(jobs) != 2 {
		t.Fatalf("replayed %+v; want c1 and c2 only", jobs)
	}
	c1, c2 := jobs[0], jobs[1]
	if c1.Contact != "c1" || c1.State != job.Active || c1.Restarts != 1 ||
		c1.Checkpoint != "c1-step" || c1.Spec != "&(executable=/bin/a)" {
		t.Errorf("c1 folded wrong: %+v", c1)
	}
	if c2.Contact != "c2" || !c2.State.Terminal() || c2.Checkpoint != "c2-step" || c2.Owner != "bob" {
		t.Errorf("c2 folded wrong: %+v", c2)
	}
}

func TestCorruptMidHistoryFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir, func(o *Options) { o.SnapshotEvery = -1 })
	submitAndFinish(t, j, "c1", job.Done)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Add a later segment, then flip a payload byte in the middle of the
	// (now non-last) first segment, so the corruption is mid-history.
	j2, _ := openTestJournal(t, dir, func(o *Options) { o.SnapshotEvery = -1 })
	submitAndFinish(t, j2, "c2", job.Done)
	j2.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.seg"))
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(Options{Dir: dir, Fsync: FsyncNever})
	if err == nil || !strings.Contains(err.Error(), "corruption") {
		t.Fatalf("mid-history corruption not fatal: %v", err)
	}
	// One "journal:" prefix and one offset: the frame error names both.
	if msg := err.Error(); strings.Count(msg, "journal:") != 1 || strings.Count(msg, "offset") != 1 {
		t.Fatalf("error text = %q", msg)
	}
}

func TestSegmentRotationAndSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	tel := telemetry.NewRegistry()
	j, _ := openTestJournal(t, dir, func(o *Options) {
		o.SegmentBytes = 512 // rotate often
		o.SnapshotEvery = 40 // snapshot after 10 jobs
		o.Telemetry = tel
	})
	for i := 0; i < 25; i++ {
		submitAndFinish(t, j, "c"+string(rune('a'+i)), job.Done)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}
	snaps := tel.Counter("infogram_journal_snapshots_total", "")
	if snaps.Value() == 0 {
		t.Fatal("snapshot counter never incremented")
	}
	// Compaction must have deleted covered segments: far fewer files than
	// the ~25 jobs * 4 records / tiny segment size would otherwise leave.
	segs := listSegments(j.opts.Dir)
	if len(segs) > 10 {
		t.Fatalf("%d segments after compaction; snapshots are not deleting covered history", len(segs))
	}
	j.Close()

	// Recovery from snapshot + tail sees all jobs exactly once.
	j2, _ := openTestJournal(t, dir, nil)
	jobs := j2.Table().List()
	if len(jobs) != 25 {
		t.Fatalf("recovered %d jobs; want 25", len(jobs))
	}
	for _, js := range jobs {
		if js.State != job.Done {
			t.Fatalf("job %q recovered as %s", js.Contact, js.State)
		}
	}
}

func TestFsyncAlwaysAndMetrics(t *testing.T) {
	tel := telemetry.NewRegistry()
	j, _ := openTestJournal(t, t.TempDir(), func(o *Options) {
		o.Fsync = FsyncAlways
		o.Telemetry = tel
	})
	submitAndFinish(t, j, "c1", job.Done)
	appends := tel.Counter("infogram_journal_appends_total", "")
	if appends.Value() != 4 {
		t.Fatalf("appends counter = %d; want 4", appends.Value())
	}
	if got := tel.Histogram("infogram_journal_fsync_seconds", "").Snapshot().Count; got < 4 {
		t.Fatalf("fsync histogram counted %d observations; want >= 4", got)
	}
}

func TestFsyncIntervalSyncsInBackground(t *testing.T) {
	j, _ := openTestJournal(t, t.TempDir(), func(o *Options) {
		o.Fsync = FsyncInterval
		o.FsyncInterval = 5 * time.Millisecond
	})
	submitAndFinish(t, j, "c1", job.Done)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		j.mu.Lock()
		dirty := j.dirty
		j.mu.Unlock()
		if !dirty {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("background fsync never cleared the dirty flag")
}

func TestAppendFailpointRefusesRecord(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	j, _ := openTestJournal(t, t.TempDir(), nil)
	faultinject.Arm(faultinject.JournalAppend, faultinject.Action{Err: errors.New("disk gone"), Count: 1})
	err := j.Append(context.Background(), Entry{Kind: KindSubmit, Contact: "c1", Time: time.Now().UnixNano()})
	if err == nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("armed append failpoint not surfaced: %v", err)
	}
	// The refused record must not exist anywhere.
	if got := j.Table().List(); len(got) != 0 {
		t.Fatalf("refused record folded into state: %+v", got)
	}
	if err := j.Append(context.Background(), Entry{Kind: KindSubmit, Contact: "c1", Time: time.Now().UnixNano()}); err != nil {
		t.Fatalf("append after consumed failpoint: %v", err)
	}
}

func TestFsyncFailpointFailsAlwaysPolicyAppend(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	j, _ := openTestJournal(t, t.TempDir(), func(o *Options) { o.Fsync = FsyncAlways })
	faultinject.Arm(faultinject.JournalFsync, faultinject.Action{Err: errors.New("sync lost"), Count: 1})
	err := j.Append(context.Background(), Entry{Kind: KindSubmit, Contact: "c1", Time: time.Now().UnixNano()})
	if err == nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("fsync failpoint not surfaced under FsyncAlways: %v", err)
	}
}

// TestSnapshotDirSyncFailureKeepsSegments: a snapshot whose directory
// sync fails must not delete the segments it covers — after a power loss
// the rename could be lost while the unlinks survive.
func TestSnapshotDirSyncFailureKeepsSegments(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir, func(o *Options) {
		o.SegmentBytes = 512
		o.SnapshotEvery = -1
	})
	for i := 0; i < 8; i++ {
		submitAndFinish(t, j, "c"+strconv.Itoa(i), job.Done)
	}
	before := listSegments(dir)
	if len(before) < 2 {
		t.Fatalf("want several segments before the snapshot, got %v", before)
	}
	faultinject.Arm(faultinject.JournalFsync, faultinject.Action{Err: errors.New("dir sync lost"), Count: 1})
	if err := j.Snapshot(); err == nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("snapshot with a failing directory sync: %v", err)
	}
	after := listSegments(dir)
	for _, idx := range before {
		if _, err := os.Stat(segPath(dir, idx)); err != nil {
			t.Fatalf("covered segment %d deleted before the directory sync (now %v): %v", idx, after, err)
		}
	}
	want := j.Table().List()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, _ := openTestJournal(t, dir, nil)
	sameJobs(t, j2.Table().List(), want)
}

func TestClosedJournalRefusesAppends(t *testing.T) {
	j, _ := openTestJournal(t, t.TempDir(), nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(context.Background(), Entry{Kind: KindSubmit, Contact: "c"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestNilJournalIsInert(t *testing.T) {
	var j *Journal
	if err := j.Append(context.Background(), Entry{}); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j.NoteRecovered(3)
	if j.Table() != nil || j.Dir() != "" {
		t.Fatal("nil journal leaked state")
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{"": FsyncInterval, "interval": FsyncInterval, "ALWAYS": FsyncAlways, "never": FsyncNever} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestSnapshotSurvivesUndeletedSegments(t *testing.T) {
	// A crash between snapshot rename and segment deletion leaves covered
	// segments behind; recovery must skip them (no double-fold).
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir, func(o *Options) { o.SnapshotEvery = -1 })
	submitAndFinish(t, j, "c1", job.Done)
	stale := filepath.Join(dir, "journal-00000000.seg")
	pre, err := os.ReadFile(stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := os.Stat(stale); err == nil {
		t.Fatal("compaction left the covered segment behind")
	}
	// Resurrect the covered segment: its records are already folded into
	// the snapshot and would double-apply if replayed.
	if err := os.WriteFile(stale, pre, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, _ := openTestJournal(t, dir, nil)
	jobs := j2.Table().List()
	if len(jobs) != 1 {
		t.Fatalf("recovered %d jobs; want 1 (covered segment replayed?)", len(jobs))
	}
	if jobs[0].State != job.Done {
		t.Fatalf("job state %s after skipping covered segment", jobs[0].State)
	}
}

package logging

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2002, 7, 24, 12, 0, 0, 0, time.UTC)

func TestAppendReplayRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf)
	records := []Record{
		{Time: t0, Kind: KindServiceStart},
		{Time: t0.Add(time.Second), Kind: KindSubmit, Contact: "gram://h/1/1",
			Spec: "&(executable=/bin/date)", Owner: "alice", Identity: "/O=Grid/CN=alice"},
		{Time: t0.Add(2 * time.Second), Kind: KindState, Contact: "gram://h/1/1", State: "ACTIVE"},
		{Time: t0.Add(3 * time.Second), Kind: KindInfoQuery, Identity: "/O=Grid/CN=alice",
			Owner: "alice", Keywords: []string{"Memory", "CPU"}},
	}
	for _, r := range records {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	back, err := Replay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(records) {
		t.Fatalf("%d records back, want %d", len(back), len(records))
	}
	for i, want := range records {
		got := back[i]
		if got.Kind != want.Kind || got.Contact != want.Contact ||
			got.Spec != want.Spec || got.State != want.State ||
			!got.Time.Equal(want.Time) {
			t.Errorf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if strings.Join(back[3].Keywords, ",") != "Memory,CPU" {
		t.Errorf("keywords = %v", back[3].Keywords)
	}
}

func TestReplayBadLine(t *testing.T) {
	// A malformed line in the middle of the log is genuine corruption.
	in := "{\"kind\":\"submit\"}\nnot-json\n{\"kind\":\"state\"}\n"
	if _, err := Replay(strings.NewReader(in)); err == nil {
		t.Error("expected error on malformed mid-file line")
	}
}

func TestReplayDropsCorruptTail(t *testing.T) {
	// A process that dies mid-append leaves a truncated final line; the
	// replay must proceed from the intact prefix.
	cases := []string{
		"{\"kind\":\"submit\",\"contact\":\"c1\"}\n{\"kind\":\"state\",\"con", // cut mid-record, no newline
		"{\"kind\":\"submit\",\"contact\":\"c1\"}\nnot-json\n",                // garbage tail with newline
	}
	for _, in := range cases {
		recs, err := Replay(strings.NewReader(in))
		if err != nil {
			t.Fatalf("Replay(%q): %v", in, err)
		}
		if len(recs) != 1 || recs[0].Contact != "c1" {
			t.Errorf("Replay(%q) = %+v, want the intact prefix", in, recs)
		}
	}
}

// replayFile reads a log file back.
func replayFile(t *testing.T, path string) ([]Record, error) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return Replay(f)
}

func TestRecoverAfterTruncatedLog(t *testing.T) {
	// A file logger whose process died mid-append: truncate the file
	// mid-final-record (the crash signature) and check the intact prefix
	// still replays, so accounting sees the job as submitted, not done.
	path := filepath.Join(t.TempDir(), "jobs.log")
	lg, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend := func(r Record) {
		t.Helper()
		if err := lg.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend(Record{Kind: KindSubmit, Contact: "gram://h/1/1", Spec: "&(executable=a)", Owner: "alice"})
	mustAppend(Record{Kind: KindState, Contact: "gram://h/1/1", State: "ACTIVE"})
	mustAppend(Record{Kind: KindState, Contact: "gram://h/1/1", State: "DONE"})
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	// Chop the final record in half.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-15], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := replayFile(t, path)
	if err != nil {
		t.Fatalf("replay after truncation: %v", err)
	}
	if len(recs) != 2 || recs[1].State != "ACTIVE" {
		t.Fatalf("replayed %+v, want the submit and ACTIVE lines", recs)
	}
	if sums := Accounting(recs); len(sums) != 1 || sums[0].JobsSubmit != 1 || sums[0].JobsDone != 0 {
		t.Fatalf("Accounting = %+v, want the job whose DONE record was lost as submitted only", sums)
	}
}

func TestReplaySkipsEmptyLines(t *testing.T) {
	recs, err := Replay(strings.NewReader("\n{\"kind\":\"submit\"}\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Errorf("records = %d", len(recs))
	}
}

func TestFileLogger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Time: t0, Kind: KindServiceStart}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-open appends rather than truncates.
	l2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(Record{Time: t0.Add(time.Hour), Kind: KindServiceStart}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := replayFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Errorf("records = %d", len(recs))
	}
	// Close is idempotent.
	if err := l2.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// buildCrashLog simulates a service run that died with work outstanding.
func buildCrashLog() []Record {
	return []Record{
		{Time: t0, Kind: KindServiceStart},
		// finished job
		{Kind: KindSubmit, Contact: "c1", Spec: "&(executable=/bin/a)", Owner: "alice", Identity: "idA"},
		{Kind: KindState, Contact: "c1", State: "PENDING"},
		{Kind: KindState, Contact: "c1", State: "ACTIVE"},
		{Kind: KindState, Contact: "c1", State: "DONE"},
		// active job at crash
		{Kind: KindSubmit, Contact: "c2", Spec: "&(executable=/bin/b)", Owner: "bob", Identity: "idB"},
		{Kind: KindState, Contact: "c2", State: "PENDING"},
		{Kind: KindState, Contact: "c2", State: "ACTIVE"},
		{Kind: KindCheckpoint, Contact: "c2", Checkpoint: "step=42"},
		// failed job
		{Kind: KindSubmit, Contact: "c3", Spec: "&(executable=/bin/c)", Owner: "alice", Identity: "idA"},
		{Kind: KindState, Contact: "c3", State: "PENDING"},
		{Kind: KindState, Contact: "c3", State: "FAILED"},
		// pending job at crash
		{Kind: KindSubmit, Contact: "c4", Spec: "&(executable=/bin/d)", Owner: "bob", Identity: "idB"},
		{Kind: KindState, Contact: "c4", State: "PENDING"},
	}
}

func TestRecoverFromCorruptTailFeedsRecovery(t *testing.T) {
	// The corrupt-tail path end to end: the torn final record is the very
	// transition that would have finished the job, so replay's tail
	// tolerance decides what accounting sees. The job must read as
	// unfinished, with the checkpoint that preceded the tear intact.
	path := filepath.Join(t.TempDir(), "jobs.log")
	lg, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Record{
		{Kind: KindSubmit, Contact: "c1", Spec: "&(executable=a)", Owner: "alice"},
		{Kind: KindState, Contact: "c1", State: "PENDING"},
		{Kind: KindState, Contact: "c1", State: "ACTIVE"},
		{Kind: KindCheckpoint, Contact: "c1", Checkpoint: "step=7"},
		{Kind: KindState, Contact: "c1", State: "DONE"},
	} {
		if err := lg.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the DONE record in half, the signature of dying mid-append.
	if err := os.WriteFile(path, b[:len(b)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := replayFile(t, path)
	if err != nil {
		t.Fatalf("replay after torn tail: %v", err)
	}
	if len(recs) != 4 || recs[3].Checkpoint != "step=7" {
		t.Fatalf("replayed %+v; the pre-tear checkpoint must survive as the last record", recs)
	}
	if sums := Accounting(recs); len(sums) != 1 || sums[0].JobsDone != 0 {
		t.Errorf("Accounting = %+v; the job whose DONE was torn must not count as done", sums)
	}
}

func TestAccounting(t *testing.T) {
	recs := buildCrashLog()
	recs = append(recs,
		Record{Kind: KindInfoQuery, Identity: "idA", Owner: "alice", Keywords: []string{"Memory"}},
		Record{Kind: KindInfoQuery, Identity: "idA", Owner: "alice", Keywords: []string{"Memory", "CPU"}},
	)
	sums := Accounting(recs)
	if len(sums) != 2 {
		t.Fatalf("summaries = %+v", sums)
	}
	// Sorted by identity: idA then idB.
	a, b := sums[0], sums[1]
	if a.Identity != "idA" || b.Identity != "idB" {
		t.Fatalf("order: %q, %q", a.Identity, b.Identity)
	}
	if a.JobsSubmit != 2 || a.JobsDone != 1 || a.JobsFailed != 1 {
		t.Errorf("idA = %+v", a)
	}
	if a.InfoQueries != 2 || a.KeywordsSeen["Memory"] != 2 || a.KeywordsSeen["CPU"] != 1 {
		t.Errorf("idA queries = %+v", a)
	}
	if b.JobsSubmit != 2 || b.JobsDone != 0 {
		t.Errorf("idB = %+v", b)
	}
}

func TestAccountingCountsRestarts(t *testing.T) {
	recs := []Record{
		{Kind: KindSubmit, Contact: "c", Identity: "id", Owner: "o"},
		{Kind: KindState, Contact: "c", State: "PENDING"},
		{Kind: KindState, Contact: "c", State: "FAILED"},
		{Kind: KindState, Contact: "c", State: "PENDING", Restarts: 1},
		{Kind: KindState, Contact: "c", State: "DONE"},
	}
	sums := Accounting(recs)
	if len(sums) != 1 || sums[0].JobsRestart != 1 || sums[0].JobsDone != 1 {
		t.Errorf("sums = %+v", sums)
	}
}

// A job crashed at restart 1 and resumed by recovery logs its PENDING
// restarts=1 line twice, once per service run; that is still one restart.
func TestAccountingCountsRestartOnceAcrossRecovery(t *testing.T) {
	recs := []Record{
		{Kind: KindSubmit, Contact: "c", Identity: "id", Owner: "o"},
		{Kind: KindState, Contact: "c", State: "PENDING"},
		{Kind: KindState, Contact: "c", State: "ACTIVE"},
		{Kind: KindState, Contact: "c", State: "FAILED", Error: "exit code 1 (will restart)"},
		{Kind: KindState, Contact: "c", State: "PENDING", Restarts: 1},
		{Kind: KindState, Contact: "c", State: "ACTIVE", Restarts: 1},
		{Kind: KindServiceStart},
		{Kind: KindState, Contact: "c", State: "PENDING", Restarts: 1},
		{Kind: KindState, Contact: "c", State: "ACTIVE", Restarts: 1},
		{Kind: KindState, Contact: "c", State: "DONE", Restarts: 1},
	}
	sums := Accounting(recs)
	if len(sums) != 1 || sums[0].JobsRestart != 1 || sums[0].JobsDone != 1 {
		t.Errorf("sums = %+v; want one restart and one DONE", sums)
	}
}

// legacySpanLog was written by a server that also logged a flat "span"
// record per handshake, request, info collect and job spawn. It holds two
// info queries, an echo job run to DONE and a sleep job left ACTIVE by the
// shutdown.
const legacySpanLog = "testdata/legacy-span.log"

// readLegacySpanLog returns the legacy log and the same log with its span
// lines removed.
func readLegacySpanLog(t testing.TB) (withSpans, withoutSpans []byte) {
	t.Helper()
	raw, err := os.ReadFile(legacySpanLog)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if !strings.Contains(line, `"kind":"span"`) {
			kept = append(kept, line)
		}
	}
	return raw, []byte(strings.Join(kept, ""))
}

// A log from before span records were dropped still replays: the span
// lines decode as records of an unknown kind that accounting skips, so it
// sees exactly what it sees without them.
func TestLegacySpanRecordsReplay(t *testing.T) {
	raw, stripped := readLegacySpanLog(t)
	with, err := Replay(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	without, err := Replay(bytes.NewReader(stripped))
	if err != nil {
		t.Fatal(err)
	}
	if len(with) != 24 || len(without) != 10 {
		t.Fatalf("replayed %d records with spans, %d without; want 24 and 10", len(with), len(without))
	}

	sums := Accounting(with)
	if !reflect.DeepEqual(sums, Accounting(without)) {
		t.Errorf("Accounting differs: %+v with spans, %+v without", sums, Accounting(without))
	}
	if len(sums) != 1 || sums[0].JobsSubmit != 2 || sums[0].JobsDone != 1 || sums[0].InfoQueries != 2 ||
		sums[0].KeywordsSeen["CPULoad"] != 2 || sums[0].KeywordsSeen["Memory"] != 1 {
		t.Errorf("summaries = %+v", sums)
	}
}

func TestWriteReport(t *testing.T) {
	var sb strings.Builder
	err := WriteReport(&sb, []AccountSummary{{
		Identity: "/O=Grid/CN=alice", Owner: "alice",
		JobsSubmit: 3, JobsDone: 2, JobsFailed: 1, InfoQueries: 7,
	}})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"IDENTITY", "alice", "3", "7"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conc.log")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				_ = l.Append(Record{Time: t0, Kind: KindState, Contact: "c", State: "ACTIVE"})
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := replayFile(t, path)
	if err != nil {
		t.Fatalf("interleaved writes corrupted the log: %v", err)
	}
	if len(recs) != 800 {
		t.Errorf("records = %d, want 800", len(recs))
	}
	_ = os.Remove(path)
}

package journal

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"infogram/internal/job"
)

var testTime = time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)

// copyDir copies the files of src into a fresh directory: Open starts a
// segment of its own, so a checked-in journal is opened only as a copy.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, f.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// testdata/legacy/journal was written by the journal as it stood before
// the job table became its only store, when the journal folded records
// into a job map of its own: a snapshot covering four jobs, then a tail
// over six segments. It holds finished jobs, a FAILED that will restart,
// a job SUSPENDED after a restart, a job that finished after the
// snapshot, a job only submitted, a FAILED from before WillRestart
// existed followed by its restart, and a record for a contact never
// submitted. recovered.json is what that journal recovered from it.
// Today's recovery must find the same jobs, field for field.
func TestLegacyJournalRecoversUnchanged(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "legacy", "recovered.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []JobState
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	var unfinished []string
	wantRecs := make([]job.Record, len(want))
	for i := range want {
		wantRecs[i] = job.Record(want[i])
		if !wantRecs[i].Finished() {
			unfinished = append(unfinished, want[i].Contact)
		}
	}
	if len(want) != 8 || len(unfinished) != 4 {
		t.Fatalf("testdata holds %d jobs, %d unfinished; want 8 and 4", len(want), len(unfinished))
	}
	j, rec := openTestJournal(t, copyDir(t, filepath.Join("testdata", "legacy", "journal")), nil)
	if rec.TornTail || rec.Segments != 6 {
		t.Errorf("replayed %d segments (torn %v); want 6 intact ones", rec.Segments, rec.TornTail)
	}
	if !reflect.DeepEqual(rec.Unfinished, unfinished) {
		t.Errorf("unfinished = %v; want %v", rec.Unfinished, unfinished)
	}
	sameJobs(t, j.Table().List(), wantRecs)

	// The next snapshot, written from the table, recovers the same again.
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	dir := j.Dir()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	again, _ := openTestJournal(t, dir, nil)
	sameJobs(t, again.Table().List(), wantRecs)
}

// The record of a transition made before its job finished can reach the
// journal after the finish. Recovery reads the job finished: it is not
// listed for resumption, and it answers DONE.
func TestStaleRecordAfterFinishStaysFinishedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir, nil)
	for i, e := range []Entry{
		{Kind: KindSubmit, Contact: "c", Spec: "&(executable=x)(restart=1)"},
		{Kind: KindState, Contact: "c", State: "DONE", ExitCode: intPtr(0), Restarts: 1, Stdout: strPtr("out")},
		{Kind: KindState, Contact: "c", State: "SUSPENDED", Restarts: 1},
	} {
		e.Time = int64(i + 1)
		if err := j.Append(context.Background(), e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, rec := openTestJournal(t, dir, nil)
	if len(rec.Unfinished) != 0 {
		t.Errorf("recovery would resume %v", rec.Unfinished)
	}
	if got, err := j2.Table().Get("c"); err != nil || got.State != job.Done || got.Stdout != "out" {
		t.Errorf("recovered %+v (%v); want DONE with its output", got, err)
	}
}

// A snapshot carries the highest job id the table has seen, so a
// restarted service knows a contact it forgot before the snapshot as its
// own: the contact reads expired, not unknown, and its id is not issued
// again.
func TestSnapshotLastIDKeepsEvictedContactExpired(t *testing.T) {
	const n = job.KeepTerminal
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir, func(o *Options) { o.SnapshotEvery = -1 })
	table := j.Table()
	table.Bind("site:1")
	ctx := context.Background()
	contacts := make([]string, 2*n)
	for i := range contacts {
		contacts[i] = table.NewContact(testTime)
		if err := j.Append(ctx, Entry{Kind: KindSubmit, Time: 1, Contact: contacts[i], Spec: "&(executable=x)"}); err != nil {
			t.Fatal(err)
		}
	}
	// The highest id finishes first, so the window's cut forgets it.
	highest := contacts[len(contacts)-1]
	finishAt := func(c string, at int64) {
		if err := j.Append(ctx, Entry{Kind: KindState, Time: at, Contact: c, State: "DONE", ExitCode: intPtr(0)}); err != nil {
			t.Fatal(err)
		}
	}
	finishAt(highest, 2)
	for i, c := range contacts[:len(contacts)-1] {
		finishAt(c, int64(3+i))
	}
	if _, err := table.Get(highest); !errors.Is(err, job.ErrExpired) {
		t.Fatalf("Get(highest) = %v; want it forgotten", err)
	}
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, _ := openTestJournal(t, dir, nil)
	restarted := j2.Table()
	restarted.Bind("site:1")
	if _, err := restarted.Get(highest); !errors.Is(err, job.ErrExpired) {
		t.Errorf("after a restart Get(highest) = %v; want ErrExpired", err)
	}
	if c, want := restarted.NewContact(testTime), fmt.Sprintf("gram://site:1/%d/", 2*n+1); !strings.HasPrefix(c, want) {
		t.Errorf("restarted table issues %s; want %s…", c, want)
	}
}

// Appending to a journal whose table already holds the job allocates
// nothing for a terminal record and, for a submission, only the table's
// entry: the table is the one store, so there is no second copy to build.
func TestAppendAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	j, _ := openTestJournal(t, t.TempDir(), func(o *Options) { o.SnapshotEvery = -1 })
	ctx := context.Background()
	const runs = 500
	submits := make([]Entry, runs+1)
	dones := make([]Entry, runs+1)
	exit, out := 0, "ok"
	for i := range submits {
		c := fmt.Sprintf("gram://site:1/%d/1", i+1)
		submits[i] = Entry{Kind: KindSubmit, Time: 1, Contact: c, Spec: "&(executable=noop)(jobtype=func)", Owner: "bench", Identity: "/O=Grid/CN=bench"}
		dones[i] = Entry{Kind: KindState, Time: 2, Contact: c, State: "DONE", ExitCode: &exit, Stdout: &out}
	}
	i := 0
	if got := testing.AllocsPerRun(runs, func() { _ = j.Append(ctx, submits[i]); i++ }); got > 1 {
		t.Errorf("a submission append allocates %.0f; want at most the table entry", got)
	}
	i = 0
	if got := testing.AllocsPerRun(runs, func() { _ = j.Append(ctx, dones[i]); i++ }); got != 0 {
		t.Errorf("a DONE append allocates %.0f; want 0", got)
	}
}

// A live transition allocates only what its record asks for: journaling a
// DONE through Transition costs what the table's own Transition does, and
// the table, with or without a journal, builds no second record.
func TestTransitionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const runs = 500
	exit, out := 0, "ok"
	queued := func(apply func(Entry) error) []Entry {
		dones := make([]Entry, runs+1)
		for i := range dones {
			c := fmt.Sprintf("gram://site:1/%d/1", i+1)
			for _, e := range []Entry{
				{Kind: KindSubmit, Time: 1, Contact: c, Spec: "&(executable=noop)(jobtype=func)"},
				{Kind: KindState, Time: 2, Contact: c, State: "PENDING"},
			} {
				if err := apply(e); err != nil {
					t.Fatal(err)
				}
			}
			dones[i] = Entry{Kind: KindState, Time: 3, Contact: c, State: "DONE", ExitCode: &exit, Stdout: &out}
		}
		return dones
	}

	j, _ := openTestJournal(t, t.TempDir(), func(o *Options) { o.SnapshotEvery = -1 })
	ctx := context.Background()
	dones := queued(func(e Entry) error {
		if e.Kind == KindSubmit {
			return j.Append(ctx, e)
		}
		_, err := j.Transition(ctx, e)
		return err
	})
	i := 0
	if got := testing.AllocsPerRun(runs, func() { _, _ = j.Transition(ctx, dones[i]); i++ }); got != 0 {
		t.Errorf("a journaled DONE transition allocates %.0f; want 0", got)
	}

	tbl := job.NewTable("site:1")
	dones = queued(func(e Entry) error {
		if e.Kind == KindSubmit {
			tbl.Apply(e)
			return nil
		}
		_, err := tbl.Transition(e)
		return err
	})
	i = 0
	if got := testing.AllocsPerRun(runs, func() { _, _ = tbl.Transition(dones[i]); i++ }); got != 0 {
		t.Errorf("a DONE transition allocates %.0f; want 0", got)
	}
}

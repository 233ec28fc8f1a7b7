package journal

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"infogram/internal/job"
)

// finish journals a submit for contact and its DONE at time done.
func finish(t *testing.T, j *Journal, contact string, done int64) {
	t.Helper()
	ctx := context.Background()
	if err := j.Append(ctx, Entry{Kind: KindSubmit, Time: done - 1, Contact: contact, Spec: "&(executable=noop)"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(ctx, Entry{Kind: KindState, Time: done, Contact: contact, State: "DONE", ExitCode: intPtr(0)}); err != nil {
		t.Fatal(err)
	}
}

func holds(jobs []job.Record, contact string) bool {
	for _, js := range jobs {
		if js.Contact == contact {
			return true
		}
	}
	return false
}

func contacts(jobs []job.Record) []string {
	out := make([]string, 0, len(jobs))
	for _, js := range jobs {
		out = append(out, js.Contact)
	}
	return out
}

// footprint counts the unfinished and the finished jobs j's table holds.
func footprint(j *Journal) (live, finished int) {
	for _, rec := range j.Table().List() {
		if rec.Finished() {
			finished++
		} else {
			live++
		}
	}
	return live, finished
}

// longJobHistory journals a job "long" submitted first but finished only
// after KeepTerminal others: the newest to finish, the oldest submitted.
// Job i of the others finishes at time 10·(i+1); "long" after them all.
func longJobHistory(t *testing.T, j *Journal) {
	t.Helper()
	ctx := context.Background()
	if err := j.Append(ctx, Entry{Kind: KindSubmit, Time: 1, Contact: "long", Spec: "&(executable=slow)"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < job.KeepTerminal; i++ {
		finish(t, j, fmt.Sprintf("x%d", i), int64(10*(i+1)))
	}
	if err := j.Append(ctx, Entry{Kind: KindState, Time: 10 * (job.KeepTerminal + 1), Contact: "long", State: "DONE", ExitCode: intPtr(0)}); err != nil {
		t.Fatal(err)
	}
}

// moreFinished journals n jobs y0…y(n-1), each finishing after every job
// of longJobHistory.
func moreFinished(t *testing.T, j *Journal, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		finish(t, j, fmt.Sprintf("y%d", i), int64(10*(job.KeepTerminal+2+i)))
	}
}

// The fold forgets the jobs that finished first, not those submitted
// first, and a restart through a snapshot changes nothing: after the
// window's next cut the restarted journal holds exactly what an
// uninterrupted one does.
func TestFoldForgetsOldestFinishedAcrossSnapshot(t *testing.T) {
	const n = job.KeepTerminal
	steady, _ := openTestJournal(t, t.TempDir(), func(o *Options) { o.SnapshotEvery = -1 })
	dir := t.TempDir()
	restarted, _ := openTestJournal(t, dir, func(o *Options) { o.SnapshotEvery = -1 })
	longJobHistory(t, steady)
	longJobHistory(t, restarted)
	if err := restarted.Snapshot(); err != nil {
		t.Fatal(err)
	}
	restarted.Close()
	restarted, _ = openTestJournal(t, dir, nil)
	if got := restarted.Table().List(); len(got) != n+1 || !holds(got, "long") {
		t.Fatalf("recovered %d jobs; want %d, the long job among them", len(got), n+1)
	}
	moreFinished(t, steady, n-1)
	moreFinished(t, restarted, n-1)
	if live, finished := footprint(steady); live != 0 || finished != n {
		t.Fatalf("after the cut the table holds live=%d finished=%d; want 0, %d", live, finished, n)
	}
	want := steady.Table().List()
	if !holds(want, "long") || holds(want, "x0") {
		t.Fatal("the cut did not forget exactly the jobs that finished first")
	}
	sameJobs(t, restarted.Table().List(), want)
}

// A follower fed the Subscribe cut forgets the same jobs as its leader.
func TestSubscribeCutKeepsFollowerInStep(t *testing.T) {
	leader, _ := openTestJournal(t, t.TempDir(), nil)
	longJobHistory(t, leader)
	tap, cut, err := leader.Subscribe(1 << 14)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Unsubscribe(tap)
	follower, _ := openTestJournal(t, t.TempDir(), nil)
	ctx := context.Background()
	for _, e := range cut {
		if err := follower.Append(ctx, e); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < job.KeepTerminal-1; i++ {
		finish(t, leader, fmt.Sprintf("y%d", i), int64(10*(job.KeepTerminal+2+i)))
		for k := 0; k < 2; k++ {
			var e Entry
			if err := json.Unmarshal(<-tap.Records(), &e); err != nil {
				t.Fatal(err)
			}
			if err := follower.Append(ctx, e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, finished := footprint(leader); finished != job.KeepTerminal {
		t.Fatalf("leader holds %d finished jobs; the window's cut did not run", finished)
	}
	sameJobs(t, follower.Table().List(), leader.Table().List())
}

// A FAILED marked WillRestart is not finished: the window's cuts pass it
// by, and its PENDING folds in however many jobs retired meanwhile.
func TestWillRestartFailureIsNeverForgotten(t *testing.T) {
	j, _ := openTestJournal(t, t.TempDir(), nil)
	ctx := context.Background()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(j.Append(ctx, Entry{Kind: KindSubmit, Time: 1, Contact: "r", Spec: "&(executable=flaky)(restart=1)"}))
	must(j.Append(ctx, Entry{Kind: KindState, Time: 2, Contact: "r", State: "FAILED", ExitCode: intPtr(1),
		Error: "exit code 1 (will restart)", WillRestart: true}))
	for i := 0; i < 2*job.KeepTerminal+1; i++ {
		finish(t, j, fmt.Sprintf("x%d", i), int64(10*(i+1)))
	}
	must(j.Append(ctx, Entry{Kind: KindState, Time: 10 * (2*job.KeepTerminal + 2), Contact: "r", State: "PENDING", Restarts: 1}))
	js, err := j.Table().Get("r")
	if err != nil || js.State != job.Pending || js.Restarts != 1 {
		t.Fatalf("restarting job folded to %+v (%v)", js, err)
	}
}

// A FAILED journaled before WillRestart existed reads as finished; the
// PENDING that follows revives it, and it is held once when it finishes
// again, across a snapshot.
func TestRevivedJobRetiresOnce(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir, nil)
	ctx := context.Background()
	for _, e := range []Entry{
		{Kind: KindSubmit, Time: 1, Contact: "c", Spec: "&(executable=flaky)(restart=1)"},
		{Kind: KindState, Time: 2, Contact: "c", State: "FAILED", ExitCode: intPtr(1), Error: "exit code 1 (will restart)"},
		{Kind: KindState, Time: 3, Contact: "c", State: "PENDING", Restarts: 1},
		{Kind: KindState, Time: 4, Contact: "c", State: "DONE", ExitCode: intPtr(0), Restarts: 1},
	} {
		if err := j.Append(ctx, e); err != nil {
			t.Fatal(err)
		}
	}
	if live, finished := footprint(j); live != 0 || finished != 1 {
		t.Fatalf("table holds live=%d finished=%d; want 0, 1", live, finished)
	}
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, _ := openTestJournal(t, dir, nil)
	if jobs := j2.Table().List(); len(jobs) != 1 || jobs[0].State != job.Done || jobs[0].Restarts != 1 {
		t.Fatalf("recovered %+v", jobs)
	}
}

// A snapshot written before the window existed lists every finished job
// ever run, in submission order. Recovery keeps the newest KeepTerminal
// of them by finishing time, whatever their place in the file, and so
// does the next snapshot. (Neither keeps the file's order: the table has
// none, and recovery needs none.)
func TestOldSnapshotKeepsNewestFinished(t *testing.T) {
	const n = job.KeepTerminal
	const total = 2*n + 100
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	// Job i finishes at slot (i·7919) mod total, a permutation: the
	// newest to finish are scattered through the file.
	finishedAt := func(i int) time.Time { return base.Add(time.Duration((i*7919)%total) * time.Second) }
	snap := snapshot{Jobs: []JobState{{Contact: "live", State: job.Active, Submitted: base, Updated: base}}}
	var want []string
	for i := 0; i < total; i++ {
		c := fmt.Sprintf("old%d", i)
		snap.Jobs = append(snap.Jobs, JobState{Contact: c, State: job.Done, Submitted: base, Updated: finishedAt(i)})
		if (i*7919)%total >= total-n {
			want = append(want, c)
		}
	}
	want = append([]string{"live"}, want...)
	sort.Strings(want)
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName), b, 0o644); err != nil {
		t.Fatal(err)
	}

	j, rec := openTestJournal(t, dir, nil)
	if got := contacts(j.Table().List()); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d jobs; want the live one and the newest %d finished", len(got), n)
	}
	if live, finished := footprint(j); live != 1 || finished != n || !reflect.DeepEqual(rec.Unfinished, []string{"live"}) {
		t.Fatalf("table holds live=%d finished=%d, unfinished %v; want 1, %d, [live]", live, finished, rec.Unfinished, n)
	}
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	b, err = os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	var next snapshot
	if err := json.Unmarshal(b, &next); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(next.Jobs))
	for _, js := range next.Jobs {
		got = append(got, js.Contact)
	}
	if sort.Strings(got); !reflect.DeepEqual(got, want) {
		t.Fatalf("next snapshot holds %d jobs; want the %d recovered", len(got), len(want))
	}
}

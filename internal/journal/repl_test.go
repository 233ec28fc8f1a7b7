package journal

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func subEntry(contact, spec string) Entry {
	return Entry{Kind: KindSubmit, Time: time.Now().UnixNano(), Contact: contact, Spec: spec, Owner: "u", Identity: "id"}
}

func stateEntry(contact, state string) Entry {
	return Entry{Kind: KindState, Time: time.Now().UnixNano(), Contact: contact, State: state}
}

// TestSubscribeCutIsConsistent: records appended before Subscribe are
// folded into the cut, records appended after land on the tap — none in
// both, none in neither.
func TestSubscribeCutIsConsistent(t *testing.T) {
	j, _, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	ctx := context.Background()
	if err := j.Append(ctx, subEntry("c1", "spec1")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(ctx, stateEntry("c1", "ACTIVE")); err != nil {
		t.Fatal(err)
	}

	tap, cut, err := j.Subscribe(16)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Unsubscribe(tap)

	var sawSubmit, sawState bool
	for _, e := range cut {
		if e.Contact != "c1" {
			t.Fatalf("cut carries a record for %q, which was never appended before it", e.Contact)
		}
		sawSubmit = sawSubmit || (e.Kind == KindSubmit && e.Spec == "spec1")
		sawState = sawState || (e.Kind == KindState && e.State == "ACTIVE")
	}
	if !sawSubmit || !sawState {
		t.Fatalf("cut misses the pre-cut appends: %+v", cut)
	}

	if err := j.Append(ctx, subEntry("c2", "spec2")); err != nil {
		t.Fatal(err)
	}
	select {
	case rec, ok := <-tap.Records():
		if !ok {
			t.Fatal("tap closed unexpectedly")
		}
		if string(rec) == "" || !containsAll(string(rec), `"c2"`, `"spec2"`) {
			t.Fatalf("live record does not carry the post-cut append: %s", rec)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("post-cut append never reached the tap")
	}
	// The pre-cut records must NOT arrive live.
	select {
	case rec := <-tap.Records():
		t.Fatalf("unexpected extra live record: %s", rec)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestSubscribeCutRoundTrip: a fresh journal fed the Subscribe cut plus
// the post-cut tap records, then reopened, holds the leader's job table
// field for field — over seeded-random histories with restarts,
// checkpoints, set-to-empty output, exit codes, retirements, and a
// snapshot+compaction on either side of the cut.
func TestSubscribeCutRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			leader, _ := openTestJournal(t, t.TempDir(), func(o *Options) {
				o.SegmentBytes = 1 << 10
				o.SnapshotEvery = -1
			})
			h := &history{t: t, j: leader, rng: rng, now: time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC).UnixNano()}
			h.run(60 + rng.Intn(60))
			tap, cut, err := leader.Subscribe(1 << 12)
			if err != nil {
				t.Fatal(err)
			}
			defer leader.Unsubscribe(tap)
			post := h.appends
			h.run(rng.Intn(80))
			post = h.appends - post

			dir := t.TempDir()
			follower, _ := openTestJournal(t, dir, nil)
			ctx := context.Background()
			for _, e := range cut {
				if err := follower.Append(ctx, e); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < post; i++ {
				var e Entry
				if err := json.Unmarshal(<-tap.Records(), &e); err != nil {
					t.Fatal(err)
				}
				if err := follower.Append(ctx, e); err != nil {
					t.Fatal(err)
				}
			}
			if err := follower.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec := openTestJournal(t, dir, nil)
			sameJobs(t, rec.Jobs, leader.Jobs())
		})
	}
}

// history drives a journal through a seeded-random job history.
type history struct {
	t       *testing.T
	j       *Journal
	rng     *rand.Rand
	now     int64
	next    int
	live    []string // submitted, not terminal
	failed  []string // terminal FAILED, restartable
	appends int
}

func (h *history) append(e Entry) {
	h.t.Helper()
	h.now += 1 + h.rng.Int63n(1e6)
	e.Time = h.now
	if err := h.j.Append(context.Background(), e); err != nil {
		h.t.Fatal(err)
	}
	h.appends++
}

// output is an unset, set-to-empty or non-empty stdout/stderr value.
func (h *history) output(tag string) *string {
	switch h.rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return strPtr("")
	}
	return strPtr(fmt.Sprintf("%s-%d", tag, h.rng.Intn(1000)))
}

func (h *history) run(steps int) {
	for i := 0; i < steps; i++ {
		switch op := h.rng.Intn(20); {
		case op < 4 || len(h.live) == 0:
			c := fmt.Sprintf("gram://leader/%d", h.next)
			h.next++
			h.append(Entry{Kind: KindSubmit, Contact: c, Spec: "&(executable=x)(arguments=" + c + ")", Owner: "alice", Identity: "/O=Grid/CN=alice"})
			h.live = append(h.live, c)
		case op < 9:
			c := h.live[h.rng.Intn(len(h.live))]
			st := []string{"PENDING", "ACTIVE", "SUSPENDED"}[h.rng.Intn(3)]
			h.append(Entry{Kind: KindState, Contact: c, State: st, Stdout: h.output("out"), Stderr: h.output("err")})
		case op < 11:
			c := h.live[h.rng.Intn(len(h.live))]
			h.append(Entry{Kind: KindCheckpoint, Contact: c, Checkpoint: fmt.Sprintf("ckpt-%d", h.rng.Intn(1000))})
		case op < 16:
			k := h.rng.Intn(len(h.live))
			c := h.live[k]
			h.live = append(h.live[:k], h.live[k+1:]...)
			e := Entry{Kind: KindState, Contact: c, State: "DONE", Stdout: h.output("out"), Stderr: h.output("err")}
			switch h.rng.Intn(3) {
			case 0:
				e.ExitCode = intPtr(0)
			case 1:
				e.State, e.ExitCode, e.Error = "FAILED", intPtr(1+h.rng.Intn(100)), "exit status"
				h.failed = append(h.failed, c)
			}
			h.append(e)
		case op < 18 && len(h.failed) > 0:
			// FAILED -> PENDING: the restart=N path revives a retired job.
			k := h.rng.Intn(len(h.failed))
			c := h.failed[k]
			h.failed = append(h.failed[:k], h.failed[k+1:]...)
			h.append(Entry{Kind: KindState, Contact: c, State: "PENDING", Restarts: 1 + h.rng.Intn(3)})
			h.live = append(h.live, c)
		case op == 19:
			if err := h.j.Snapshot(); err != nil {
				h.t.Fatal(err)
			}
		}
	}
}

// sameJobs compares job tables field for field, times by UnixNano.
func sameJobs(t *testing.T, got, want []JobState) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Submitted.UnixNano() != w.Submitted.UnixNano() || g.Updated.UnixNano() != w.Updated.UnixNano() {
			t.Fatalf("job %d times: got %v/%v, want %v/%v", i, g.Submitted, g.Updated, w.Submitted, w.Updated)
		}
		g.Submitted, g.Updated, w.Submitted, w.Updated = time.Time{}, time.Time{}, time.Time{}, time.Time{}
		if g != w {
			t.Fatalf("job %d:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// TestSubscribeSlowFollowerDropped: a tap that never drains overflows
// its buffer and is closed rather than blocking appends.
func TestSubscribeSlowFollowerDropped(t *testing.T) {
	j, _, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	tap, _, err := j.Subscribe(16)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		if err := j.Append(ctx, subEntry("c", "s")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-tap.Records():
			if !ok {
				return // dropped, as designed
			}
		case <-deadline:
			t.Fatal("overflowing tap was never closed")
		}
	}
}

// TestSubscribeClosedOnJournalClose: closing the journal closes taps.
func TestSubscribeClosedOnJournalClose(t *testing.T) {
	j, _, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	tap, _, err := j.Subscribe(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-tap.Records():
		if ok {
			t.Fatal("expected closed channel")
		}
	case <-time.After(time.Second):
		t.Fatal("tap not closed by journal Close")
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

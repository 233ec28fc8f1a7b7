// Cluster failover suite: the hot-standby acceptance scenarios. A
// journaled leader gatekeeper streams its write-ahead journal to a
// follower over the repl capability; the follower's local journal must
// boot an equivalent gatekeeper — terminal jobs answer
// STATUS with their recorded output under their original contacts, and
// in-flight jobs are resubmitted, so a promotion loses no journaled job.
package integration_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"infogram/internal/cluster"
	"infogram/internal/core"
	"infogram/internal/gram"
	"infogram/internal/job"
	"infogram/internal/journal"
	"infogram/internal/scheduler"
	"infogram/internal/telemetry"
)

// clusterBackends builds one gatekeeper generation's scheduler tier:
// "noop" completes instantly, "block" parks until release closes.
func clusterBackends(release <-chan struct{}) gram.Backends {
	fn := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
	fn.RegisterFunc("noop", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		return "done", nil
	})
	fn.RegisterFunc("block", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		select {
		case <-release:
			return "released", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	})
	return gram.Backends{Func: fn, Exec: &scheduler.Fork{}}
}

// startLeader boots a journaled gatekeeper on its own state directory,
// with the given request timeout (0 for none). The standby's service
// identity is mapped in the gridmap so the repl connection survives the
// gatekeeper's identity-mapping gate.
func startLeader(t *testing.T, d *deployment, release <-chan struct{}, requestTimeout time.Duration) (*core.Service, string) {
	t.Helper()
	d.gridmap.Add("/O=Grid/CN=site-service", "standby")
	jnl, _, err := journal.Open(journal.Options{Dir: t.TempDir(), SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if n := jnl.Table().Len(); n != 0 {
		t.Fatalf("fresh leader journal recovered %d jobs", n)
	}
	svc := core.NewService(core.Config{
		ResourceName: "leader-site",
		Credential:   d.svcCred, Trust: d.trust, Gridmap: d.gridmap,
		Registry:       d.reg,
		Backends:       clusterBackends(release),
		Journal:        jnl,
		RequestTimeout: requestTimeout,
	})
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return svc, addr
}

// waitState polls STATUS until the job reaches want.
func waitState(t *testing.T, cl *core.Client, contact string, want job.State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := cl.Status(contact)
		if err == nil && st.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", contact, want)
}

// waitReplicated waits until the follower's applied-record count has
// been stable for a while: the leader has stopped generating records
// (every job is in its observed steady state), so a quiet tap means the
// follower's journal holds everything the leader's does.
func waitReplicated(t *testing.T, fl *cluster.Follower) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	last, stable := int64(-1), 0
	for time.Now().Before(deadline) {
		n := fl.Records()
		if n == last {
			stable++
			if stable >= 5 {
				return
			}
		} else {
			last, stable = n, 0
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("follower live tail never went quiet (records=%d)", last)
}

// promote boots a gatekeeper from the follower's journal directory —
// the ordinary crash-restart path — and returns it with the number of
// jobs the journal replayed and the contacts it resumed.
func promote(t *testing.T, d *deployment, dir string, release <-chan struct{}) (*core.Service, int, []string) {
	t.Helper()
	jnl, rec, err := journal.Open(journal.Options{Dir: dir, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatalf("open mirrored journal: %v", err)
	}
	replayed := jnl.Table().Len()
	svc := core.NewService(core.Config{
		ResourceName: "leader-site", // the standby answers for the same resource
		Credential:   d.svcCred, Trust: d.trust, Gridmap: d.gridmap,
		Registry: d.reg,
		Backends: clusterBackends(release),
		Journal:  jnl,
	})
	if _, err := svc.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	resumed, _, err := svc.RecoverJournal(rec)
	if err != nil {
		t.Fatalf("RecoverJournal on mirrored state: %v", err)
	}
	return svc, replayed, resumed
}

// TestFollowerReplayEquivalence: a follower that took both the leader's
// cut AND the live record tail boots into the same job table
// the leader holds — terminal output preserved verbatim, in-flight jobs
// resubmitted.
func TestFollowerReplayEquivalence(t *testing.T) {
	d := newDeployment(t)
	releaseA := make(chan struct{})
	defer close(releaseA)
	svcA, addrA := startLeader(t, d, releaseA, 0)
	defer svcA.Close()
	clA, err := core.Dial(addrA, d.user, d.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer clA.Close()

	// Pre-sync history: these jobs reach the follower as the synthesized
	// cut, not as live records.
	var doneContacts, blockContacts []string
	for i := 0; i < 2; i++ {
		c, err := clA.Submit(fmt.Sprintf("&(executable=noop)(jobtype=func)(arguments=pre%d)", i))
		if err != nil {
			t.Fatal(err)
		}
		doneContacts = append(doneContacts, c)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range doneContacts {
		if st, err := clA.WaitTerminal(ctx, c, 2*time.Millisecond); err != nil || st.State != job.Done {
			t.Fatalf("pre-sync job %s: %+v %v", c, st, err)
		}
	}
	c, err := clA.Submit("&(executable=block)(jobtype=func)(arguments=pre)")
	if err != nil {
		t.Fatal(err)
	}
	blockContacts = append(blockContacts, c)
	waitState(t, clA, c, job.Active)

	followDir := t.TempDir()
	fl := cluster.NewFollower(cluster.FollowerConfig{
		Leader:     addrA,
		Dir:        followDir,
		Credential: d.svcCred,
		Trust:      d.trust,
	})
	fl.Start()
	select {
	case <-fl.Synced():
	case <-time.After(10 * time.Second):
		fl.Stop()
		t.Fatal("follower never completed its first backlog sync")
	}

	// Post-sync activity arrives as live REPL-REC records.
	c, err = clA.Submit("&(executable=noop)(jobtype=func)(arguments=live)")
	if err != nil {
		t.Fatal(err)
	}
	doneContacts = append(doneContacts, c)
	if st, err := clA.WaitTerminal(ctx, c, 2*time.Millisecond); err != nil || st.State != job.Done {
		t.Fatalf("live job %s: %+v %v", c, st, err)
	}
	c, err = clA.Submit("&(executable=block)(jobtype=func)(arguments=live)")
	if err != nil {
		t.Fatal(err)
	}
	blockContacts = append(blockContacts, c)
	waitState(t, clA, c, job.Active)
	if fl.Records() == 0 {
		// Not fatal on its own, but the live path is the point of the test.
		waitReplicated(t, fl)
		if fl.Records() == 0 {
			t.Fatal("no live records reached the follower; post-sync activity was not tailed")
		}
	}
	waitReplicated(t, fl)
	fl.Stop()

	// Boot from the follower's journal and compare against the leader's.
	releaseB := make(chan struct{})
	close(releaseB)
	svcB, replayed, resumed := promote(t, d, followDir, releaseB)
	defer svcB.Close()
	if got, want := replayed, len(doneContacts)+len(blockContacts); got != want {
		t.Fatalf("mirror replayed %d jobs; leader journaled %d", got, want)
	}
	if len(resumed) != len(blockContacts) {
		t.Fatalf("resumed %v; want the %d in-flight jobs %v", resumed, len(blockContacts), blockContacts)
	}
	clB, err := core.Dial(svcB.Addr(), d.user, d.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()
	for _, c := range doneContacts {
		stA, err := clA.Status(c)
		if err != nil {
			t.Fatalf("leader lost contact %s: %v", c, err)
		}
		stB, err := clB.Status(c)
		if err != nil {
			t.Fatalf("mirror lost contact %s: %v", c, err)
		}
		if stB.State != stA.State || stB.Stdout != stA.Stdout {
			t.Errorf("contact %s diverged: leader %+v, mirror %+v", c, stA, stB)
		}
	}
	for _, c := range blockContacts {
		st, err := clB.WaitTerminal(ctx, c, 2*time.Millisecond)
		if err != nil {
			t.Fatalf("resumed job %s on the mirror: %v", c, err)
		}
		if st.State != job.Done || st.Stdout != "released" {
			t.Errorf("resumed job %s = %+v; want DONE from the re-run attempt", c, st)
		}
	}
}

// TestKillLeaderPromoteChaos: the leader dies hard under concurrent
// submissions; the follower detects the loss, promotes, and every job
// the leader journaled is answerable on the standby — terminal jobs with
// their output, in-flight jobs resubmitted and driven to completion.
// Zero journaled-job loss is the acceptance bar.
func TestKillLeaderPromoteChaos(t *testing.T) {
	d := newDeployment(t)
	releaseA := make(chan struct{})
	defer close(releaseA)
	svcA, addrA := startLeader(t, d, releaseA, 0)
	leaderClosed := false
	defer func() {
		if !leaderClosed {
			svcA.Close()
		}
	}()
	clA, err := core.Dial(addrA, d.user, d.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer clA.Close()

	followDir := t.TempDir()
	fl := cluster.NewFollower(cluster.FollowerConfig{
		Leader:        addrA,
		Dir:           followDir,
		Credential:    d.svcCred,
		Trust:         d.trust,
		DialTimeout:   2 * time.Second,
		ResyncBackoff: 100 * time.Millisecond,
		FailThreshold: 2,
	})
	fl.Start()
	select {
	case <-fl.Synced():
	case <-time.After(10 * time.Second):
		fl.Stop()
		t.Fatal("follower never synced")
	}

	// Concurrent submission burst while the follower tails live — the
	// chaos element the -race run polices.
	const doneN, blockN = 4, 3
	var (
		mu            sync.Mutex
		doneContacts  []string
		blockContacts []string
		wg            sync.WaitGroup
	)
	for i := 0; i < doneN+blockN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := core.Dial(addrA, d.user, d.trust)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cl.Close()
			spec := fmt.Sprintf("&(executable=noop)(jobtype=func)(arguments=%d)", i)
			if i >= doneN {
				spec = fmt.Sprintf("&(executable=block)(jobtype=func)(arguments=%d)", i)
			}
			contact, err := cl.Submit(spec)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			mu.Lock()
			if i >= doneN {
				blockContacts = append(blockContacts, contact)
			} else {
				doneContacts = append(doneContacts, contact)
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range doneContacts {
		if st, err := clA.WaitTerminal(ctx, c, 2*time.Millisecond); err != nil || st.State != job.Done {
			t.Fatalf("pre-kill job %s: %+v %v", c, st, err)
		}
	}
	for _, c := range blockContacts {
		waitState(t, clA, c, job.Active)
	}
	waitReplicated(t, fl)

	// Hard kill. Closing the service also closes its journal, so the
	// follower's stream drops exactly as it would on a machine loss.
	clA.Close()
	svcA.Close()
	leaderClosed = true

	select {
	case <-fl.LeaderLost():
	case <-time.After(15 * time.Second):
		fl.Stop()
		t.Fatal("leader loss was never detected")
	}
	fl.Stop()

	releaseB := make(chan struct{})
	close(releaseB)
	svcB, replayed, resumed := promote(t, d, followDir, releaseB)
	defer svcB.Close()
	if got, want := replayed, doneN+blockN; got != want {
		t.Fatalf("promotion lost journaled jobs: replayed %d, leader journaled %d", got, want)
	}
	if len(resumed) != blockN {
		t.Fatalf("resumed %v; want the %d in-flight jobs %v", resumed, blockN, blockContacts)
	}
	clB, err := core.Dial(svcB.Addr(), d.user, d.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()
	for _, c := range doneContacts {
		st, err := clB.Status(c)
		if err != nil {
			t.Fatalf("journaled job %s lost in promotion: %v", c, err)
		}
		if st.State != job.Done || st.Stdout != "done" {
			t.Errorf("promoted job %s = %+v; want DONE with recorded stdout", c, st)
		}
	}
	for _, c := range blockContacts {
		st, err := clB.WaitTerminal(ctx, c, 2*time.Millisecond)
		if err != nil {
			t.Fatalf("in-flight job %s lost in promotion: %v", c, err)
		}
		if st.State != job.Done || st.Stdout != "released" {
			t.Errorf("in-flight job %s = %+v; want DONE from the promoted re-run", c, st)
		}
	}
}

// TestFollowerIdleLeaderNoResync: an idle leader heartbeats, so a
// follower whose DialTimeout is far shorter than the idle spell keeps
// its one stream instead of failing a read, re-dialing and re-taking
// the whole history every DialTimeout.
func TestFollowerIdleLeaderNoResync(t *testing.T) {
	d := newDeployment(t)
	release := make(chan struct{})
	defer close(release)
	svc, addr := startLeader(t, d, release, 0)
	defer svc.Close()
	tel := telemetry.NewRegistry()
	fl := cluster.NewFollower(cluster.FollowerConfig{
		Leader:      addr,
		Dir:         t.TempDir(),
		Credential:  d.svcCred,
		Trust:       d.trust,
		DialTimeout: time.Second,
		Telemetry:   tel,
	})
	fl.Start()
	defer fl.Stop()
	select {
	case <-fl.Synced():
	case <-time.After(10 * time.Second):
		t.Fatal("follower never synced")
	}
	time.Sleep(5 * time.Second)
	if n := tel.Counter("cluster_follower_resyncs_total", "").Value(); n != 1 {
		t.Fatalf("cluster_follower_resyncs_total = %d after 5s of leader idleness; want 1", n)
	}
}

// TestFollowerOutlivesLeaderRequestTimeout: a leader's request timeout
// bounds its writes to a follower, not the wait for the follower to hang
// up, so a quiet follower keeps its one stream across many timeouts.
func TestFollowerOutlivesLeaderRequestTimeout(t *testing.T) {
	d := newDeployment(t)
	release := make(chan struct{})
	defer close(release)
	svc, addr := startLeader(t, d, release, 200*time.Millisecond)
	defer svc.Close()
	tel := telemetry.NewRegistry()
	fl := cluster.NewFollower(cluster.FollowerConfig{
		Leader:      addr,
		Dir:         t.TempDir(),
		Credential:  d.svcCred,
		Trust:       d.trust,
		DialTimeout: time.Second,
		Telemetry:   tel,
	})
	fl.Start()
	defer fl.Stop()
	select {
	case <-fl.Synced():
	case <-time.After(10 * time.Second):
		t.Fatal("follower never synced")
	}
	time.Sleep(2 * time.Second)
	if n := tel.Counter("cluster_follower_resyncs_total", "").Value(); n != 1 {
		t.Fatalf("cluster_follower_resyncs_total = %d after 2s idle under a 200ms leader request timeout; want 1", n)
	}
}

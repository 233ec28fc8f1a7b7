package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"infogram/internal/clock"
	"infogram/internal/gsi"
	"infogram/internal/journal"
	"infogram/internal/session"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
)

// FollowerConfig wires a hot-standby journal follower.
type FollowerConfig struct {
	// Leader is the leader gatekeeper's address.
	Leader string
	// Dir is the follower's local state directory: an ordinary journal
	// fed with the leader's records, so a promotion boots from local disk
	// exactly like a crash restart.
	Dir string
	// Credential and Trust authenticate the follower to the leader.
	Credential *gsi.Credential
	Trust      *gsi.TrustStore
	// Clock defaults to the system clock.
	Clock clock.Clock
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// ResyncBackoff is the pause between reconnect attempts (default 500ms).
	ResyncBackoff time.Duration
	// FailThreshold is how many consecutive connect/stream failures
	// signal LeaderLost; <=0 selects DefaultFailThreshold. The follower
	// keeps retrying after the signal — the leader may come back — until
	// it is stopped or promoted.
	FailThreshold int
	// Telemetry optionally receives the follower's counters.
	Telemetry *telemetry.Registry
}

// Follower tails a leader's journal over the repl capability into a
// local journal on Dir. Promotion is deliberately nothing special: stop
// the tail, then boot a gatekeeper on Dir through the ordinary
// journal.Open → core.NewService → RecoverJournal path — the same code
// that recovers a crashed leader recovers a promoted follower, so the
// failover path is exercised by every restart test.
type Follower struct {
	cfg FollowerConfig

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	synced     chan struct{} // closed after the first complete cut lands
	syncedOnce sync.Once
	lost       chan struct{} // closed when FailThreshold consecutive failures accrue
	lostOnce   sync.Once

	records atomic.Int64 // live records applied

	// jnl is the local copy, opened on Dir by the first completed sync
	// and owned by the run goroutine; run closes it on exit.
	jnl *journal.Journal

	applied *telemetry.Counter
	resyncs *telemetry.Counter
}

// NewFollower builds a follower; Start begins tailing.
func NewFollower(cfg FollowerConfig) *Follower {
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.ResyncBackoff <= 0 {
		cfg.ResyncBackoff = 500 * time.Millisecond
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = DefaultFailThreshold
	}
	f := &Follower{
		cfg:    cfg,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		synced: make(chan struct{}),
		lost:   make(chan struct{}),
	}
	if cfg.Telemetry != nil {
		f.applied = cfg.Telemetry.Counter("cluster_follower_records_applied_total",
			"live journal records received from the leader and applied locally")
		f.resyncs = cfg.Telemetry.Counter("cluster_follower_resyncs_total",
			"full re-synchronizations: leader cuts swapped in as the local journal (first sync included)")
	}
	return f
}

// Start launches the tail loop.
func (f *Follower) Start() {
	go f.run()
}

// Stop ends tailing and closes the local journal, syncing it to disk.
// After Stop, Dir holds a journal any gatekeeper can boot from.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
}

// Synced is closed once the first complete cut has landed in the local
// journal (the follower is live-tailing from then on, across re-syncs).
func (f *Follower) Synced() <-chan struct{} { return f.synced }

// LeaderLost is closed when FailThreshold consecutive connection or
// stream failures accrue — the probe-driven promotion signal.
func (f *Follower) LeaderLost() <-chan struct{} { return f.lost }

// Records reports live records applied since Start (tests, telemetry).
func (f *Follower) Records() int64 { return f.records.Load() }

func (f *Follower) run() {
	defer close(f.done)
	// Stop has no error to return; every record already reached the OS.
	defer func() { _ = f.jnl.Close() }()
	failures := 0
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		err := f.syncOnce(&failures)
		if err != nil {
			failures++
			if failures >= f.cfg.FailThreshold {
				f.lostOnce.Do(func() { close(f.lost) })
			}
		}
		select {
		case <-f.stop:
			return
		case <-time.After(f.cfg.ResyncBackoff):
		}
	}
}

// leaderSilence bounds each stream read once the stream is live: a
// leader heartbeats every wire.ReplHeartbeat, so three missed beats mean
// it is gone even if no RST ever arrives.
const leaderSilence = 3 * wire.ReplHeartbeat

// syncOnce performs one full replication session: connect, take the
// cut, then tail live records until the stream breaks or the follower
// stops. failures is reset once the cut lands (the leader is
// demonstrably alive).
func (f *Follower) syncOnce(failures *int) error {
	sess, err := session.Dial(context.Background(), f.cfg.Leader, session.DialOptions{
		Credential:  f.cfg.Credential,
		Trust:       f.cfg.Trust,
		Clock:       f.cfg.Clock,
		DialTimeout: f.cfg.DialTimeout,
		Timeout:     f.cfg.DialTimeout,
		Repl:        true,
	})
	if err != nil {
		return err
	}
	conn := sess.Conn
	defer conn.Close()
	if !sess.Repl {
		return fmt.Errorf("cluster: leader %s declined replication (no journal?)", f.cfg.Leader)
	}
	// Unblock the stop path: closing the connection fails the blocking
	// Read below.
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		select {
		case <-f.stop:
			conn.Close()
		case <-stopWatch:
		}
	}()

	var st stream
	for {
		fr, err := conn.Read()
		if err != nil {
			return err
		}
		if err := f.step(&st, fr); err != nil {
			return err
		}
		if st.live {
			*failures = 0
			conn.SetIOTimeout(leaderSilence)
		}
	}
}

// stream is one replication session's follower-side state.
type stream struct {
	cut  []journal.Entry // records before the first REPL-LIVE
	live bool
}

// step applies one stream frame. It touches no socket, so the fuzz
// target drives it directly. Records before the first REPL-LIVE are
// held in memory; that REPL-LIVE swaps them in as the local journal, and
// later records are appended as they arrive. A malformed record or an
// unknown verb ends the session.
func (f *Follower) step(st *stream, fr wire.Frame) error {
	switch fr.Verb {
	case wire.VerbReplRec:
		var e journal.Entry
		if err := json.Unmarshal(fr.Payload, &e); err != nil {
			return fmt.Errorf("cluster: malformed repl record: %w", err)
		}
		if !st.live {
			st.cut = append(st.cut, e)
			return nil
		}
		if err := f.jnl.Append(context.Background(), e); err != nil {
			return err
		}
		f.records.Add(1)
		f.applied.Inc()
	case wire.VerbReplLive:
		if st.live {
			return nil // heartbeat
		}
		if err := f.replace(st.cut); err != nil {
			return err
		}
		st.cut, st.live = nil, true
		f.resyncs.Inc()
		f.syncedOnce.Do(func() { close(f.synced) })
	default:
		return fmt.Errorf("cluster: unexpected repl frame %s", fr.Verb)
	}
	return nil
}

// replace discards the previous local journal and opens a fresh one on
// Dir holding exactly cut. It runs only once the whole cut is in hand,
// so a stream that dies early leaves the previous copy intact. The
// journal never fsyncs: durability is the leader journal's job; the
// copy is for takeover, and every append still reaches the OS at once.
func (f *Follower) replace(cut []journal.Entry) error {
	_ = f.jnl.Close() // discarded next; a failed sync loses nothing kept
	f.jnl = nil
	if err := journal.Discard(f.cfg.Dir); err != nil {
		return err
	}
	jnl, _, err := journal.Open(journal.Options{Dir: f.cfg.Dir, Fsync: journal.FsyncNever, Clock: f.cfg.Clock})
	if err != nil {
		return err
	}
	f.jnl = jnl
	for _, e := range cut {
		if err := jnl.Append(context.Background(), e); err != nil {
			return err
		}
	}
	return nil
}

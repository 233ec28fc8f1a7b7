package cluster

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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
	// Dir is the follower's local state directory: the leader's journal
	// is mirrored here so a promotion boots from local disk exactly like
	// a crash restart.
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

// Follower tails a leader's journal over the REPL capability into a
// local state directory. Promotion is deliberately nothing special: stop
// the tail, then boot a gatekeeper on Dir through the ordinary
// journal.Open → core.NewService → RecoverJournal path — the same code
// that recovers a crashed leader recovers a promoted follower, so the
// failover path is exercised by every restart test.
type Follower struct {
	cfg FollowerConfig

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	synced     chan struct{} // closed after the first complete backlog ship
	syncedOnce sync.Once
	lost       chan struct{} // closed when FailThreshold consecutive failures accrue
	lostOnce   sync.Once

	records atomic.Int64 // live records applied

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
			"full backlog re-synchronizations (first sync included)")
	}
	return f
}

// Start launches the tail loop.
func (f *Follower) Start() {
	go f.run()
}

// Stop ends tailing and syncs the mirrored files to disk. After Stop,
// Dir holds a journal any gatekeeper can boot from.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
}

// Synced is closed once the first full backlog has been mirrored (the
// follower is live-tailing from then on, across re-syncs).
func (f *Follower) Synced() <-chan struct{} { return f.synced }

// LeaderLost is closed when FailThreshold consecutive connection or
// stream failures accrue — the probe-driven promotion signal.
func (f *Follower) LeaderLost() <-chan struct{} { return f.lost }

// Records reports live records applied since Start (tests, telemetry).
func (f *Follower) Records() int64 { return f.records.Load() }

func (f *Follower) run() {
	defer close(f.done)
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

// syncOnce performs one full replication session: connect, mirror the
// backlog, then tail live records until the stream breaks or the
// follower stops. failures is reset once the backlog lands (the leader
// is demonstrably alive).
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
	if sess.Repl == nil {
		return fmt.Errorf("cluster: leader %s declined replication (no journal?)", f.cfg.Leader)
	}
	manifest := *sess.Repl
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

	if err := f.wipeDir(); err != nil {
		return err
	}
	f.resyncs.Inc()

	mirror, err := newMirror(f.cfg.Dir, manifest)
	if err != nil {
		return err
	}
	defer mirror.close()

	for {
		fr, err := conn.Read()
		if err != nil {
			return err
		}
		switch fr.Verb {
		case wire.VerbReplSnap:
			if err := mirror.snapChunk(fr.Payload); err != nil {
				return err
			}
		case wire.VerbReplSeg:
			if err := mirror.segChunk(fr.Payload); err != nil {
				return err
			}
		case wire.VerbReplLive:
			// Backlog complete: commit the mirrored files, then tail.
			if err := mirror.commitBacklog(); err != nil {
				return err
			}
			*failures = 0
			f.syncedOnce.Do(func() { close(f.synced) })
		case wire.VerbReplRec:
			if err := mirror.record(fr.Payload); err != nil {
				return err
			}
			f.records.Add(1)
			f.applied.Inc()
		default:
			return fmt.Errorf("cluster: unexpected repl frame %s", fr.Verb)
		}
	}
}

// wipeDir clears the mirrored journal state for a fresh sync.
func (f *Follower) wipeDir() error {
	if err := os.MkdirAll(f.cfg.Dir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(f.cfg.Dir)
	if err != nil {
		return err
	}
	for _, de := range entries {
		name := de.Name()
		if name == "snapshot.json" || name == "snapshot.json.tmp" ||
			(strings.HasPrefix(name, "journal-") && strings.HasSuffix(name, ".seg")) {
			if err := os.Remove(filepath.Join(f.cfg.Dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// mirror materializes one replication session's files: the snapshot, the
// shipped segment prefixes, and the live tail segment.
type mirror struct {
	dir      string
	manifest wire.ReplManifest

	snap     *os.File // snapshot.json.tmp while the backlog ships
	snapLeft int64

	segIdx  int // position in manifest.Segments
	seg     *os.File
	segLeft int64

	tail    *os.File // live record segment
	tailBuf *bufio.Writer
	encBuf  []byte
}

func newMirror(dir string, m wire.ReplManifest) (*mirror, error) {
	mi := &mirror{dir: dir, manifest: m, snapLeft: m.SnapshotSize}
	if m.SnapshotSize >= 0 {
		fh, err := os.OpenFile(filepath.Join(dir, "snapshot.json.tmp"), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, err
		}
		mi.snap = fh
	}
	// Materialize every manifest segment up front so zero-length ones
	// (the leader's freshly rotated current segment) exist too.
	for _, seg := range m.Segments {
		fh, err := os.OpenFile(mi.segPath(seg.Index), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, err
		}
		fh.Close()
	}
	if err := mi.openSeg(); err != nil {
		return nil, err
	}
	return mi, nil
}

func (m *mirror) segPath(idx int) string {
	return filepath.Join(m.dir, fmt.Sprintf("journal-%08d.seg", idx))
}

// openSeg positions the writer at the next manifest segment that still
// expects bytes.
func (m *mirror) openSeg() error {
	for m.segIdx < len(m.manifest.Segments) && m.manifest.Segments[m.segIdx].Size == 0 {
		m.segIdx++
	}
	if m.segIdx >= len(m.manifest.Segments) {
		return nil
	}
	seg := m.manifest.Segments[m.segIdx]
	fh, err := os.OpenFile(m.segPath(seg.Index), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	m.seg, m.segLeft = fh, seg.Size
	return nil
}

func (m *mirror) snapChunk(b []byte) error {
	if m.snap == nil || int64(len(b)) > m.snapLeft {
		return fmt.Errorf("cluster: unexpected snapshot chunk")
	}
	if _, err := m.snap.Write(b); err != nil {
		return err
	}
	m.snapLeft -= int64(len(b))
	return nil
}

func (m *mirror) segChunk(b []byte) error {
	for len(b) > 0 {
		if m.seg == nil {
			return fmt.Errorf("cluster: segment bytes beyond manifest")
		}
		n := int64(len(b))
		if n > m.segLeft {
			n = m.segLeft
		}
		if _, err := m.seg.Write(b[:n]); err != nil {
			return err
		}
		m.segLeft -= n
		b = b[n:]
		if m.segLeft == 0 {
			if err := m.seg.Sync(); err != nil {
				return err
			}
			if err := m.seg.Close(); err != nil {
				return err
			}
			m.seg = nil
			m.segIdx++
			if err := m.openSeg(); err != nil {
				return err
			}
		}
	}
	return nil
}

// commitBacklog finalizes the shipped history — snapshot renamed into
// place, all segments on disk — and opens the live tail segment.
func (m *mirror) commitBacklog() error {
	if m.snapLeft > 0 || (m.seg != nil && m.segLeft > 0) {
		return fmt.Errorf("cluster: backlog marked live before fully shipped")
	}
	if m.snap != nil {
		if err := m.snap.Sync(); err != nil {
			return err
		}
		if err := m.snap.Close(); err != nil {
			return err
		}
		m.snap = nil
		if err := os.Rename(filepath.Join(m.dir, "snapshot.json.tmp"), filepath.Join(m.dir, "snapshot.json")); err != nil {
			return err
		}
	}
	// Live records land in a fresh segment after the shipped history,
	// exactly like a new process epoch.
	next := 0
	for _, seg := range m.manifest.Segments {
		if seg.Index >= next {
			next = seg.Index + 1
		}
	}
	fh, err := os.OpenFile(m.segPath(next), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	m.tail = fh
	m.tailBuf = bufio.NewWriterSize(fh, 64<<10)
	return nil
}

// record appends one live record payload to the tail segment, CRC-framed
// exactly as the leader framed it.
func (m *mirror) record(payload []byte) error {
	if m.tailBuf == nil {
		return fmt.Errorf("cluster: record before backlog completed")
	}
	m.encBuf = journal.AppendFrame(m.encBuf[:0], payload)
	if _, err := m.tailBuf.Write(m.encBuf); err != nil {
		return err
	}
	// Flushed per record: a promotion reads this file from disk, and the
	// process-local buffer would hide the newest transitions. (No fsync —
	// the durability story is the leader's; the mirror is for takeover.)
	return m.tailBuf.Flush()
}

// close releases every open file (idempotent; commit state preserved).
func (m *mirror) close() {
	if m.snap != nil {
		m.snap.Close()
		m.snap = nil
	}
	if m.seg != nil {
		m.seg.Close()
		m.seg = nil
	}
	if m.tail != nil {
		if m.tailBuf != nil {
			m.tailBuf.Flush()
		}
		m.tail.Sync()
		m.tail.Close()
		m.tail = nil
	}
}

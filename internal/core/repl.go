package core

import (
	"io"
	"os"

	"infogram/internal/wire"
)

// Leader-side journal replication: serveRepl answers a follower's REPL
// offer by shipping the journal's consistent backlog cut (snapshot +
// segment prefixes) and then relaying every subsequent append live. The
// follower half lives in internal/cluster (core cannot import cluster);
// the protocol is documented in internal/wire/repl.go.

// replTapBuffer is the per-follower live-record buffer. A follower that
// falls this many records behind while the backlog ships is dropped and
// must re-sync — bounding leader memory per follower.
const replTapBuffer = 1024

// serveRepl is the session's REPL takeover hook: it streams the journal
// to one follower connection. It owns the connection from REPL-OK on;
// returning closes it.
func (s *Service) serveRepl(c *wire.Conn) {
	tap, backlog, err := s.cfg.Journal.Subscribe(replTapBuffer)
	if err != nil || tap == nil {
		_ = c.Write(errorFrame("infogram: replication subscribe failed"))
		return
	}
	defer s.cfg.Journal.Unsubscribe(tap)
	s.instr.replFollowers.Inc()
	defer s.instr.replFollowers.Dec()

	m := wire.ReplManifest{SnapshotSize: -1}
	if backlog.Snapshot != nil {
		m.SnapshotSize = int64(len(backlog.Snapshot))
	}
	for _, seg := range backlog.Segments {
		m.Segments = append(m.Segments, wire.ReplSegment{Index: seg.Index, Size: seg.Size})
	}
	mf, err := wire.EncodeReplManifest(m)
	if err != nil {
		return
	}
	if err := c.Write(mf); err != nil {
		return
	}

	// The follower sends nothing after REPL; a read here returns only
	// when it disconnects, which unblocks the tap loop below by closing
	// the tap (Unsubscribe closes its channel).
	go func() {
		_, _ = c.Read()
		s.cfg.Journal.Unsubscribe(tap)
	}()

	// Backlog: snapshot first, then segment prefixes in manifest order.
	for off := 0; off < len(backlog.Snapshot); off += wire.ReplChunkSize {
		end := min(off+wire.ReplChunkSize, len(backlog.Snapshot))
		if err := c.Write(wire.Frame{Verb: wire.VerbReplSnap, Payload: backlog.Snapshot[off:end]}); err != nil {
			return
		}
	}
	for _, seg := range m.Segments {
		// A compaction may have deleted this segment after the cut; the
		// snapshot that replaced it is newer than the one just shipped, so
		// the stream cannot be completed consistently. Drop the follower —
		// its re-sync gets the post-compaction manifest.
		if !s.shipSegment(c, seg) {
			return
		}
	}
	if err := c.Write(wire.Frame{Verb: wire.VerbReplLive}); err != nil {
		return
	}
	for rec := range tap.Records() {
		if err := c.Write(wire.Frame{Verb: wire.VerbReplRec, Payload: rec}); err != nil {
			return
		}
		s.instr.replRecordsShipped.Inc()
	}
	// Tap closed: journal closed, follower disconnected, or the follower
	// fell behind. Either way the stream ends; the connection closes.
}

// shipSegment streams the first seg.Size bytes of one segment file.
func (s *Service) shipSegment(c *wire.Conn, seg wire.ReplSegment) bool {
	f, err := os.Open(s.cfg.Journal.SegmentPath(seg.Index))
	if err != nil {
		return false
	}
	defer f.Close()
	buf := make([]byte, wire.ReplChunkSize)
	remaining := seg.Size
	for remaining > 0 {
		n := int64(len(buf))
		if remaining < n {
			n = remaining
		}
		read, err := io.ReadFull(f, buf[:n])
		if err != nil {
			return false
		}
		if err := c.Write(wire.Frame{Verb: wire.VerbReplSeg, Payload: buf[:read]}); err != nil {
			return false
		}
		remaining -= int64(read)
	}
	return true
}

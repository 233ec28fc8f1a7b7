package core

import (
	"encoding/json"
	"time"

	"infogram/internal/wire"
)

// Leader-side journal replication: serveRepl serves a follower granted
// repl by streaming the journal's cut — the folded state of every job,
// as synthesized records — and then relaying every subsequent append
// live, with a heartbeat while the journal is idle. The follower half
// lives in internal/cluster (core cannot import cluster); the protocol
// is documented in internal/wire/repl.go.

// replTapBuffer is the per-follower live-record buffer. A follower that
// falls this many records behind while the cut ships is dropped and
// must re-sync — bounding leader memory per follower.
const replTapBuffer = 1024

// serveRepl is the session's repl takeover hook: it streams the journal
// to one follower connection. It owns the connection from the session's
// HELLO-OK on; returning closes it.
func (s *Service) serveRepl(c *wire.Conn) {
	tap, cut, err := s.cfg.Journal.Subscribe(replTapBuffer)
	if err != nil || tap == nil {
		_ = c.Write(errorFrame("infogram: replication subscribe failed"))
		return
	}
	defer s.cfg.Journal.Unsubscribe(tap)
	s.instr.replFollowers.Inc()
	defer s.instr.replFollowers.Dec()

	// The follower sends nothing after HELLO; a read here returns only
	// when it disconnects, which unblocks the tap loop below by closing
	// the tap (Unsubscribe closes its channel). The read therefore waits
	// without limit — under the server's request timeout it would end a
	// healthy, quiet stream every timeout. Writes keep that bound, so a
	// follower that stops reading is still cut off.
	c.SetReadTimeout(0)
	go func() {
		_, _ = c.Read()
		s.cfg.Journal.Unsubscribe(tap)
	}()

	for _, e := range cut {
		b, err := json.Marshal(e)
		if err != nil {
			return
		}
		if err := c.Write(wire.Frame{Verb: wire.VerbReplRec, Payload: b}); err != nil {
			return
		}
	}
	live := wire.Frame{Verb: wire.VerbReplLive}
	if err := c.Write(live); err != nil {
		return
	}
	idle := time.NewTimer(wire.ReplHeartbeat)
	defer idle.Stop()
	for {
		select {
		case rec, ok := <-tap.Records():
			if !ok {
				// Tap closed: journal closed, follower disconnected, or the
				// follower fell behind. The stream ends; the connection
				// closes.
				return
			}
			if err := c.Write(wire.Frame{Verb: wire.VerbReplRec, Payload: rec}); err != nil {
				return
			}
			s.instr.replRecordsShipped.Inc()
		case <-idle.C:
			if err := c.Write(live); err != nil {
				return
			}
		}
		idle.Reset(wire.ReplHeartbeat)
	}
}

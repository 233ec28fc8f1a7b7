package wire

import (
	"context"
	"fmt"
	"time"
)

// Journal replication rides on the frame layout exactly like MUX and
// TRACE: an opt-in capability negotiated after the GSI handshake. A
// follower gatekeeper sends a REPL frame; a leader with a journal
// answers an empty REPL-OK and then unilaterally streams journal
// records — never files:
//
//	REPL-REC   one journal record payload (the journal's JSON entry)
//	REPL-LIVE  empty: the records so far are the leader's consistent
//	           cut, live records follow; repeated as a heartbeat
//	           whenever the live feed has been idle for ReplHeartbeat
//
// Appended to an empty journal, the records before the first REPL-LIVE
// rebuild the leader's job table exactly; every later REPL-REC is an
// append as it happened. The follower is therefore an ordinary journal
// that swaps in a new cut only once REPL-LIVE confirms it is complete.
//
// REPL takes over the whole connection (it is a stream, not
// request/response — MUX is never negotiated on it). A leader without a
// journal declines with ERROR, exactly as a pre-capability peer would.
// A leader that cannot keep the follower fed (a slow follower overflowed
// its tap) closes the connection; the follower re-dials and re-syncs
// from a fresh cut. Leader and follower must run the same build: the
// stream has no version field, and a REPL-OK carrying a payload (an
// older leader's file manifest) fails negotiation.
const (
	// VerbRepl offers journal replication (follower → leader, after
	// handshake, instead of MUX).
	VerbRepl = "REPL"
	// VerbReplOK accepts the offer; it carries no payload.
	VerbReplOK = "REPL-OK"
	// VerbReplLive ends the cut, and later is the idle heartbeat.
	VerbReplLive = "REPL-LIVE"
	// VerbReplRec carries one journal record payload.
	VerbReplRec = "REPL-REC"
)

// ReplHeartbeat is how long a leader's live feed may stay idle before it
// sends REPL-LIVE, so a follower can bound its reads by a few periods
// and tell an idle leader from a silent (partitioned) one.
const ReplHeartbeat = time.Second

// NegotiateRepl offers replication on a freshly authenticated client
// connection. accepted=false means the peer declined (it has no journal
// or predates the capability) — a protocol answer, not a failure.
// After acceptance the connection is a one-way stream: the caller reads
// REPL-REC/REPL-LIVE frames until it closes.
func NegotiateRepl(ctx context.Context, conn *Conn) (accepted bool, err error) {
	resp, err := conn.CallContext(ctx, Frame{Verb: VerbRepl})
	if err != nil {
		return false, fmt.Errorf("wire: repl negotiation: %w", err)
	}
	if resp.Verb != VerbReplOK {
		return false, nil
	}
	if len(resp.Payload) != 0 {
		return false, fmt.Errorf("wire: repl negotiation: %s carries a payload (leader runs a different build)", VerbReplOK)
	}
	return true, nil
}

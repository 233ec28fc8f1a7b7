package wire

import "time"

// Journal replication rides on the frame layout like mux and trace: the
// "repl" capability of the HELLO exchange (hello.go). A follower
// gatekeeper asks for it; a leader with a journal grants it in HELLO-OK
// and then unilaterally streams journal records — never files:
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
// repl takes over the whole connection (it is a stream, not
// request/response), so a HELLO asking for both repl and mux is refused.
// A leader without a journal leaves repl out of HELLO-OK, and an older
// leader answers HELLO with ERROR; either way the follower reports that
// replication was declined. A leader that cannot keep the follower fed
// (a slow follower overflowed its tap) closes the connection; the
// follower re-dials and re-syncs from a fresh cut.
const (
	// VerbReplLive ends the cut, and later is the idle heartbeat.
	VerbReplLive = "REPL-LIVE"
	// VerbReplRec carries one journal record payload.
	VerbReplRec = "REPL-REC"
)

// ReplHeartbeat is how long a leader's live feed may stay idle before it
// sends REPL-LIVE, so a follower can bound its reads by a few periods
// and tell an idle leader from a silent (partitioned) one.
const ReplHeartbeat = time.Second

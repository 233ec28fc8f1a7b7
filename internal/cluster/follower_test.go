package cluster

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"infogram/internal/gsi"
	"infogram/internal/job"
	"infogram/internal/journal"
	"infogram/internal/session"
	"infogram/internal/wire"
)

// fakeLeader serves repl with hook, called with the 1-based session
// number; it owns the connection after the session's HELLO-OK, like
// core.serveRepl. The returned config points a follower at it.
func fakeLeader(t *testing.T, hook func(n int32, c *wire.Conn)) FollowerConfig {
	t.Helper()
	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=Follower Test CA", time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	leaderCred, _ := ca.IssueIdentity("/O=Grid/CN=leader", time.Hour, now)
	followerCred, _ := ca.IssueIdentity("/O=Grid/CN=follower", time.Hour, now)
	trust := gsi.NewTrustStore(ca.Certificate())
	var sessions atomic.Int32
	srv := session.NewServer(session.Config{
		Credential: leaderCred,
		Trust:      trust,
		ErrorVerb:  "ERROR",
		Handler: func(context.Context, *session.Peer, wire.Frame) wire.Frame {
			return wire.Frame{Verb: "ERROR"}
		},
		Repl: func(c *wire.Conn) { hook(sessions.Add(1), c) },
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return FollowerConfig{
		Leader:        addr,
		Dir:           t.TempDir(),
		Credential:    followerCred,
		Trust:         trust,
		ResyncBackoff: 20 * time.Millisecond,
	}
}

// rec renders one journal entry as a REPL-REC frame.
func rec(t testing.TB, e journal.Entry) wire.Frame {
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return wire.Frame{Verb: wire.VerbReplRec, Payload: b}
}

func submitRec(t testing.TB, contact string) wire.Frame {
	return rec(t, journal.Entry{Kind: journal.KindSubmit, Time: 1, Contact: contact, Spec: "&(executable=x)"})
}

func stateRec(t testing.TB, contact string, st job.State, stdout string) wire.Frame {
	return rec(t, journal.Entry{Kind: journal.KindState, Time: 2, Contact: contact, State: st.String(), Stdout: &stdout})
}

// TestFollowerInterruptedResyncKeepsJournal: a re-sync whose stream ends
// before REPL-LIVE must leave the previous journal intact — the standby
// is never emptied while the new cut is still in flight.
func TestFollowerInterruptedResyncKeepsJournal(t *testing.T) {
	full := []wire.Frame{
		submitRec(t, "A"), stateRec(t, "A", job.Done, "a-out"),
		submitRec(t, "B"), stateRec(t, "B", job.Active, ""),
		{Verb: wire.VerbReplLive},
	}
	partial := full[:1]
	truncated := make(chan struct{}, 1)
	cfg := fakeLeader(t, func(n int32, c *wire.Conn) {
		frames := partial
		if n == 1 {
			frames = full
		}
		for _, fr := range frames {
			if c.Write(fr) != nil {
				return
			}
		}
		if n > 1 {
			select { // never block the session: the follower keeps re-dialing
			case truncated <- struct{}{}:
			default:
			}
		}
	})
	fl := NewFollower(cfg)
	fl.Start()
	select {
	case <-fl.Synced():
	case <-time.After(10 * time.Second):
		fl.Stop()
		t.Fatal("first sync never completed")
	}
	// A second truncated session was served: the follower has read all
	// of the first one and re-dialed.
	for i := 0; i < 2; i++ {
		select {
		case <-truncated:
		case <-time.After(10 * time.Second):
			fl.Stop()
			t.Fatal("follower never re-synced")
		}
	}
	fl.Stop()

	_, recd, err := journal.Open(journal.Options{Dir: cfg.Dir})
	if err != nil {
		t.Fatalf("open follower journal: %v", err)
	}
	if len(recd.Jobs) != 2 {
		t.Fatalf("recovered %+v; want A and B from the last complete sync", recd.Jobs)
	}
	a, b := recd.Jobs[0], recd.Jobs[1]
	if a.Contact != "A" || a.State != job.Done || a.Stdout != "a-out" || b.Contact != "B" || b.State != job.Active {
		t.Fatalf("recovered %+v; want A DONE(a-out), B ACTIVE", recd.Jobs)
	}
}

// TestFollowerSilentLeaderTripsLeaderLost: a leader that stops writing
// without closing the connection (a partition: no RST) is detected by
// the heartbeat bound, not by DialTimeout.
func TestFollowerSilentLeaderTripsLeaderLost(t *testing.T) {
	silent := make(chan struct{})
	cfg := fakeLeader(t, func(_ int32, c *wire.Conn) {
		if c.Write(wire.Frame{Verb: wire.VerbReplLive}) == nil {
			<-silent
		}
	})
	defer close(silent)
	cfg.DialTimeout = time.Minute
	cfg.FailThreshold = 1
	fl := NewFollower(cfg)
	fl.Start()
	defer fl.Stop()
	start := time.Now()
	select {
	case <-fl.Synced():
	case <-time.After(10 * time.Second):
		t.Fatal("never synced")
	}
	select {
	case <-fl.LeaderLost():
		if d := time.Since(start); d < leaderSilence {
			t.Fatalf("leader declared lost after %v, before %v of silence", d, leaderSilence)
		}
	case <-time.After(leaderSilence + 10*time.Second):
		t.Fatal("a silent leader was never declared lost")
	}
}

// FuzzFollowerStream feeds arbitrary (verb, payload) sequences to the
// follower's per-frame step: it never panics, a malformed record ends
// the session with an error, and whatever the sequence, Dir afterwards
// opens as a journal.
func FuzzFollowerStream(f *testing.F) {
	// ERROR is what a leader whose journal refuses the subscription sends
	// in place of the stream.
	verbs := []string{wire.VerbReplRec, wire.VerbReplLive, "ERROR", "X"}
	seed := func(frames ...[]byte) []byte {
		var out []byte
		for _, fr := range frames {
			out = append(out, fr...)
		}
		return out
	}
	frame := func(verb byte, payload string) []byte {
		return append([]byte{verb, byte(len(payload))}, payload...)
	}
	sub := `{"k":1,"t":5,"c":"gram://x/1","spec":"&(executable=x)"}`
	done := `{"k":2,"t":9,"c":"gram://x/1","state":"DONE","exit":0,"stdout":""}`
	f.Add(seed(frame(0, sub), frame(1, ""), frame(0, done)))
	f.Add(seed(frame(0, sub), frame(0, done), frame(1, ""), frame(1, ""), frame(0, sub)))
	f.Add(seed(frame(1, ""), frame(0, "{not json")))
	f.Add(seed(frame(0, sub), frame(3, "")))
	f.Add(seed(frame(1, ""), frame(0, `{"k":3,"c":"nobody","ckpt":"x"}`), frame(0, "null")))
	f.Fuzz(func(t *testing.T, data []byte) {
		fl := NewFollower(FollowerConfig{Dir: t.TempDir()})
		var st stream
		for len(data) >= 2 {
			verb, n := verbs[int(data[0])%len(verbs)], min(int(data[1]), len(data)-2)
			fr := wire.Frame{Verb: verb, Payload: data[2 : 2+n]}
			data = data[2+n:]
			if err := fl.step(&st, fr); err != nil {
				var e journal.Entry
				if verb == wire.VerbReplRec && json.Unmarshal(fr.Payload, &e) == nil {
					t.Fatalf("well-formed record refused: %v", err)
				}
				break
			}
		}
		if err := fl.jnl.Close(); err != nil {
			t.Fatal(err)
		}
		j, _, err := journal.Open(journal.Options{Dir: fl.cfg.Dir, Fsync: journal.FsyncNever})
		if err != nil {
			t.Fatalf("follower journal does not open: %v", err)
		}
		j.Close()
	})
}

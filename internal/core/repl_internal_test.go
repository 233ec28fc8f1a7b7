package core

import (
	"net"
	"testing"
	"time"

	"infogram/internal/journal"
	"infogram/internal/provider"
	"infogram/internal/wire"
)

// A follower that stops reading is still cut off: the leader waits for it
// to hang up without limit, but its record and heartbeat writes keep the
// connection's I/O timeout.
func TestReplDropsFollowerThatStopsReading(t *testing.T) {
	jnl, _, err := journal.Open(journal.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s := NewService(Config{Registry: provider.NewRegistry(nil), Journal: jnl})
	defer s.Close()

	// net.Pipe has no buffer, so every leader write waits for a reader.
	a, b := net.Pipe()
	defer b.Close()
	leader := wire.NewConn(a)
	leader.SetIOTimeout(200 * time.Millisecond) // what the session sets for RequestTimeout
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.serveRepl(leader)
		a.Close()
	}()

	// The follower reads nothing: REPL-LIVE, the empty journal's whole
	// cut, must time out.
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("leader still streaming to a follower that stopped reading")
	}
	if n := s.instr.replFollowers.Value(); n != 0 {
		t.Errorf("infogram_repl_followers = %d after the drop; want 0", n)
	}
}

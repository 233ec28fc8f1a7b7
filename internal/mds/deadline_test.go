package mds_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infogram/internal/mds"
	"infogram/internal/session"
	"infogram/internal/wire"
)

// silentMember is a directory member that answers SEARCH until muted,
// then reads every SEARCH and never replies; PING it always answers.
func silentMember(t *testing.T, f *fabric) (string, *atomic.Bool) {
	t.Helper()
	var muted atomic.Bool
	release := make(chan struct{})
	srv := session.NewServer(session.Config{
		Credential: f.svc,
		Trust:      f.trust,
		ErrorVerb:  mds.VerbMDSError,
		Handler: func(_ context.Context, _ *session.Peer, req wire.Frame) wire.Frame {
			if req.Verb == mds.VerbSearch && muted.Load() {
				<-release
			}
			if req.Verb == mds.VerbPing {
				return wire.Frame{Verb: mds.VerbPong}
			}
			return wire.Frame{Verb: mds.VerbResult}
		},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	t.Cleanup(func() { close(release) }) // runs first: frees the handlers Close waits for
	return addr, &muted
}

// TestGIISSilentMemberBoundedByMemberTimeout: a member that accepts SEARCH
// and never replies costs a search no more than the member timeout. The
// reply degrades, naming it, within 1.5 × MemberTimeout: on a pooled
// lease, which the connection's own I/O timeout bounds, and with eight
// concurrent searches queued on the member's four leases, where the wait
// for a slot and the dial count against the same bound.
func TestGIISSilentMemberBoundedByMemberTimeout(t *testing.T) {
	f := newFabric(t)
	good := startGRIS(t, f, "res1")
	silent, muted := silentMember(t, f)
	const timeout = 500 * time.Millisecond
	giis := mds.NewGIIS(mds.GIISConfig{OrgName: "vo", Credential: f.svc, Trust: f.trust, MemberTimeout: timeout})
	if _, err := giis.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer giis.Close()
	giis.Register(good.Addr())
	giis.Register(silent)

	// search runs one search and reports how it failed the bound, if it
	// did.
	search := func() error {
		start := time.Now()
		entries, err := giis.Search(context.Background(), mds.SearchRequest{})
		elapsed := time.Since(start)
		if err != nil {
			return err
		}
		if elapsed > timeout*3/2 {
			return fmt.Errorf("search took %v; want at most %v", elapsed, timeout*3/2)
		}
		status := entries[len(entries)-1]
		if missing, _ := status.Get("missing"); missing != silent {
			return fmt.Errorf("status entry missing = %q, want the silent member %s", missing, silent)
		}
		return nil
	}

	// The member answers once, leaving a fresh lease in its pool.
	if _, err := giis.Search(context.Background(), mds.SearchRequest{}); err != nil {
		t.Fatal(err)
	}
	muted.Store(true)
	if err := search(); err != nil {
		t.Fatalf("on a pooled lease: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- search()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("eight concurrent searches: %v", err)
		}
	}
}

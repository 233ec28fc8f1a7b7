package session_test

import (
	"bufio"
	"context"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"infogram/internal/core"
	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/mds"
	"infogram/internal/session"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
)

// tap serves every TCP connection on a loopback listener with srv over a
// net.Pipe, and records the verb of every frame the client sends.
type tap struct {
	addr  string
	mu    sync.Mutex
	verbs []string
}

func newTap(t *testing.T, srv *session.Server) *tap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tp := &tap{addr: ln.Addr().String()}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			a, b := net.Pipe()
			wg.Add(3)
			go func() { defer wg.Done(); srv.ServeConn(wire.NewConn(a)); a.Close() }()
			go func() { defer wg.Done(); _, _ = io.Copy(nc, b); nc.Close() }()
			go func() {
				defer wg.Done()
				defer b.Close()
				br := bufio.NewReader(nc)
				for {
					f, err := wire.ReadFrame(br)
					if err != nil {
						return
					}
					tp.mu.Lock()
					tp.verbs = append(tp.verbs, f.Verb)
					tp.mu.Unlock()
					if wire.WriteFrame(b, f) != nil {
						return
					}
				}
			}()
		}
	}()
	return tp
}

// take returns and clears the verbs recorded so far.
func (tp *tap) take() []string {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	v := tp.verbs
	tp.verbs = nil
	return v
}

// Every session pays the GSI handshake's two client frames (AUTH,
// AUTH-FIN); negotiating capabilities adds exactly one frame, HELLO, and
// a client that wants none adds nothing.
func TestNegotiationCostsOneFrame(t *testing.T) {
	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=Frames Test CA", time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	svc, _ := ca.IssueIdentity("/O=Grid/CN=server", time.Hour, now)
	user, _ := ca.IssueIdentity("/O=Grid/CN=user", time.Hour, now)
	trust := gsi.NewTrustStore(ca.Certificate())
	tp := newTap(t, session.NewServer(session.Config{
		Credential: svc,
		Trust:      trust,
		ErrorVerb:  gram.VerbError,
		Tracer:     telemetry.NewTracer(telemetry.TracerOptions{}),
		Repl:       func(c *wire.Conn) { _ = c.Write(wire.Frame{Verb: wire.VerbReplLive}) },
		Handler: func(_ context.Context, _ *session.Peer, f wire.Frame) wire.Frame {
			switch f.Verb {
			case gram.VerbPing:
				return wire.Frame{Verb: gram.VerbPong}
			case mds.VerbSearch:
				return wire.Frame{Verb: mds.VerbResult}
			}
			return wire.Frame{Verb: gram.VerbError}
		},
	}))

	t.Run("core client", func(t *testing.T) {
		cl, err := core.Dial(tp.addr, user, trust)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Ping(); err != nil {
			t.Fatal(err)
		}
		want := []string{"AUTH", "AUTH-FIN", wire.VerbHello, gram.VerbPing}
		if got := tp.take(); !reflect.DeepEqual(got, want) {
			t.Fatalf("client frames %v, want %v", got, want)
		}
	})
	t.Run("mds client", func(t *testing.T) {
		cl, err := mds.Dial(tp.addr, user, trust)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, err := cl.Search(mds.SearchRequest{}); err != nil {
			t.Fatal(err)
		}
		want := []string{"AUTH", "AUTH-FIN", mds.VerbSearch}
		if got := tp.take(); !reflect.DeepEqual(got, want) {
			t.Fatalf("client frames %v, want %v", got, want)
		}
	})
	t.Run("follower", func(t *testing.T) {
		cl, err := session.Dial(context.Background(), tp.addr, session.DialOptions{
			Credential: user, Trust: trust, Repl: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if !cl.Repl {
			t.Fatal("repl not granted")
		}
		if f, err := cl.Conn.Read(); err != nil || f.Verb != wire.VerbReplLive {
			t.Fatalf("stream: %s, %v", f, err)
		}
		want := []string{"AUTH", "AUTH-FIN", wire.VerbHello}
		if got := tp.take(); !reflect.DeepEqual(got, want) {
			t.Fatalf("client frames %v, want %v", got, want)
		}
	})
}

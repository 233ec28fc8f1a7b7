package session

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"infogram/internal/gsi"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
)

// echo answers every request with its own verb and payload under "ECHO-".
func echo(_ context.Context, _ *Peer, f wire.Frame) wire.Frame {
	return wire.Frame{Verb: "ECHO-" + f.Verb, Payload: f.Payload}
}

// startConn runs the post-handshake half of a session over a pipe and
// returns the client end plus a channel closed when the session ends.
func startConn(t testing.TB, cfg Config) (*wire.Conn, <-chan struct{}) {
	t.Helper()
	if cfg.ErrorVerb == "" {
		cfg.ErrorVerb = "ERROR"
	}
	if cfg.Handler == nil {
		cfg.Handler = echo
	}
	srv := NewServer(cfg)
	a, b := net.Pipe()
	cn := &conn{cfg: &srv.cfg, c: wire.NewConn(a), ctx: context.Background(),
		peer: Peer{Peer: gsi.Peer{Subject: "/CN=test", Identity: "/CN=test"}}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer a.Close()
		cn.serve()
	}()
	t.Cleanup(func() { b.Close(); <-done })
	return wire.NewConn(b), done
}

func call(t *testing.T, c *wire.Conn, verb, payload string) wire.Frame {
	t.Helper()
	resp, err := c.Call(wire.Frame{Verb: verb, Payload: []byte(payload)})
	if err != nil {
		t.Fatalf("%s: %v", verb, err)
	}
	return resp
}

func wantVerb(t *testing.T, f wire.Frame, verb string) {
	t.Helper()
	if f.Verb != verb {
		t.Fatalf("got %s, want %s", f, verb)
	}
}

func TestCapabilityFramesInAnyOrder(t *testing.T) {
	tracer := telemetry.NewTracer(telemetry.TracerOptions{})
	tc := wire.TraceContext{Trace: telemetry.NewTraceID(), Sampled: true}
	ping := wire.Frame{Verb: "PING", Payload: []byte("hi")}

	t.Run("trace twice", func(t *testing.T) {
		c, _ := startConn(t, Config{Tracer: tracer})
		wantVerb(t, call(t, c, wire.VerbTrace, ""), wire.VerbTraceOK)
		wantVerb(t, call(t, c, wire.VerbTrace, ""), wire.VerbTraceOK)
		resp, err := c.Call(wire.EncodeTraceCtx(tc, ping))
		if err != nil || resp.Verb != "ECHO-PING" || string(resp.Payload) != "hi" {
			t.Fatalf("traced request: %s, %v", resp, err)
		}
	})
	t.Run("trace declined without a tracer", func(t *testing.T) {
		c, _ := startConn(t, Config{})
		wantVerb(t, call(t, c, wire.VerbTrace, ""), "ERROR")
		// Declined: requests stay unprefixed.
		wantVerb(t, call(t, c, "PING", "hi"), "ECHO-PING")
	})
	t.Run("repl without a hook", func(t *testing.T) {
		c, _ := startConn(t, Config{})
		wantVerb(t, call(t, c, wire.VerbRepl, ""), "ERROR")
		wantVerb(t, call(t, c, "PING", ""), "ECHO-PING")
	})
	t.Run("repl hook takes over", func(t *testing.T) {
		c, done := startConn(t, Config{Repl: func(c *wire.Conn) { _ = c.WriteString(wire.VerbReplOK, "{}") }})
		wantVerb(t, call(t, c, wire.VerbRepl, ""), wire.VerbReplOK)
		<-done // the session ends when the hook returns
	})
	t.Run("trace then mux", func(t *testing.T) {
		c, _ := startConn(t, Config{Tracer: tracer})
		wantVerb(t, call(t, c, wire.VerbTrace, ""), wire.VerbTraceOK)
		wantVerb(t, call(t, c, wire.VerbMux, ""), wire.VerbMuxOK)
		resp, err := c.Call(wire.EncodeMux(7, wire.EncodeTraceCtx(tc, ping)))
		if err != nil {
			t.Fatal(err)
		}
		id, inner, err := wire.DecodeMux(resp)
		if err != nil || id != 7 || inner.Verb != "ECHO-PING" || string(inner.Payload) != "hi" {
			t.Fatalf("mux'd traced request: id %d %s, %v", id, inner, err)
		}
	})
	t.Run("mux then trace", func(t *testing.T) {
		// After MUX-OK every frame is a correlated request: a TRACE offer
		// is no longer negotiation and reaches the handler like any verb.
		c, _ := startConn(t, Config{Tracer: tracer})
		wantVerb(t, call(t, c, wire.VerbMux, ""), wire.VerbMuxOK)
		resp, err := c.Call(wire.EncodeMux(1, wire.Frame{Verb: wire.VerbTrace}))
		if err != nil {
			t.Fatal(err)
		}
		if _, inner, _ := wire.DecodeMux(resp); inner.Verb != "ECHO-TRACE" {
			t.Fatalf("got %s", inner)
		}
	})
}

func TestMuxMalformedCorrelationDropsConnection(t *testing.T) {
	frameErrs := telemetry.NewRegistry().Counter("frame_errors", "")
	c, done := startConn(t, Config{Instruments: Instruments{Conn: wire.ConnInstruments{FrameErrors: frameErrs}}})
	wantVerb(t, call(t, c, wire.VerbMux, ""), wire.VerbMuxOK)
	if _, err := c.Call(wire.Frame{Verb: "PING", Payload: []byte("no-id")}); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("uncorrelated frame on a mux'd connection: %v, want the connection dropped", err)
	}
	<-done
	if n := frameErrs.Value(); n != 1 {
		t.Errorf("frame errors = %d, want 1", n)
	}
}

func TestMuxDispatchNeverExceedsBound(t *testing.T) {
	const bound = 2
	var running, peak atomic.Int32
	entered := make(chan struct{}, bound+1)
	release := make(chan struct{})
	c, _ := startConn(t, Config{Parallelism: bound, Handler: func(ctx context.Context, p *Peer, f wire.Frame) wire.Frame {
		n := running.Add(1)
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
		entered <- struct{}{}
		<-release
		running.Add(-1)
		return echo(ctx, p, f)
	}})
	wantVerb(t, call(t, c, wire.VerbMux, ""), wire.VerbMuxOK)
	for id := uint64(1); id <= bound; id++ {
		if err := c.Write(wire.EncodeMux(id, wire.Frame{Verb: "PING"})); err != nil {
			t.Fatal(err)
		}
		<-entered
	}
	// The pipe is unbuffered, so a write completes only when the session
	// reads: with every worker slot taken it must not.
	third := make(chan error, 1)
	go func() { third <- c.Write(wire.EncodeMux(bound+1, wire.Frame{Verb: "PING"})) }()
	select {
	case err := <-third:
		t.Fatalf("frame %d was read while %d handlers were running (%v)", bound+1, bound, err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	seen := map[uint64]bool{}
	for range bound + 1 {
		f, err := c.Read()
		if err != nil {
			t.Fatal(err)
		}
		id, _, _ := wire.DecodeMux(f)
		seen[id] = true
	}
	if err := <-third; err != nil {
		t.Fatal(err)
	}
	if len(seen) != bound+1 || peak.Load() != bound {
		t.Errorf("responses %v, peak concurrency %d, want %d", seen, peak.Load(), bound)
	}
}

func TestZeroLengthPayload(t *testing.T) {
	tracer := telemetry.NewTracer(telemetry.TracerOptions{})
	t.Run("serial", func(t *testing.T) {
		c, _ := startConn(t, Config{})
		wantVerb(t, call(t, c, "PING", ""), "ECHO-PING")
	})
	t.Run("traced", func(t *testing.T) {
		// A frame that owes a trace prefix and has none is answered with
		// an error; the connection stays up.
		c, _ := startConn(t, Config{Tracer: tracer})
		wantVerb(t, call(t, c, wire.VerbTrace, ""), wire.VerbTraceOK)
		wantVerb(t, call(t, c, "PING", ""), "ERROR")
		wantVerb(t, call(t, c, wire.VerbTrace, ""), wire.VerbTraceOK)
	})
	t.Run("mux", func(t *testing.T) {
		c, done := startConn(t, Config{})
		wantVerb(t, call(t, c, wire.VerbMux, ""), wire.VerbMuxOK)
		_ = c.Write(wire.Frame{Verb: "PING"})
		<-done
	})
}

func TestGateRunsOnceAfterNegotiation(t *testing.T) {
	var calls atomic.Int32
	allow := func(id string) (string, error) { calls.Add(1); return "local-" + id, nil }
	deny := func(string) (string, error) { calls.Add(1); return "", errors.New("no gridmap entry") }
	local := func(_ context.Context, p *Peer, f wire.Frame) wire.Frame {
		return wire.Frame{Verb: "OK", Payload: []byte(p.Local)}
	}

	t.Run("allowed", func(t *testing.T) {
		calls.Store(0)
		c, _ := startConn(t, Config{Gate: allow, Handler: local})
		wantVerb(t, call(t, c, wire.VerbTrace, ""), "ERROR") // negotiation does not need the gate
		if calls.Load() != 0 {
			t.Fatal("gate ran during negotiation")
		}
		for range 3 {
			if resp := call(t, c, "PING", ""); string(resp.Payload) != "local-/CN=test" {
				t.Fatalf("handler saw local account %q", resp.Payload)
			}
		}
		if calls.Load() != 1 {
			t.Errorf("gate ran %d times, want once per connection", calls.Load())
		}
	})
	t.Run("refused serial", func(t *testing.T) {
		c, done := startConn(t, Config{Gate: deny, Handler: local})
		wantVerb(t, call(t, c, wire.VerbTrace, ""), "ERROR")
		resp := call(t, c, "PING", "")
		if resp.Verb != "ERROR" || !strings.HasPrefix(string(resp.Payload), "gatekeeper: ") {
			t.Fatalf("first request: %s, want the gatekeeper refusal", resp)
		}
		<-done
	})
	t.Run("refused mux", func(t *testing.T) {
		c, done := startConn(t, Config{Gate: deny, Handler: local})
		wantVerb(t, call(t, c, wire.VerbMux, ""), wire.VerbMuxOK)
		resp := call(t, c, "PING", "9 ")
		id, inner, err := wire.DecodeMux(resp)
		if err != nil || id != 9 || inner.Verb != "ERROR" || !strings.HasPrefix(string(inner.Payload), "gatekeeper: ") {
			t.Fatalf("first request: id %d %s (%v), want the correlated gatekeeper refusal", id, inner, err)
		}
		<-done
	})
	t.Run("refused repl", func(t *testing.T) {
		c, done := startConn(t, Config{Gate: deny, Repl: func(*wire.Conn) { t.Error("REPL hook ran for a refused identity") }})
		wantVerb(t, call(t, c, wire.VerbRepl, ""), "ERROR")
		<-done
	})
}

// FuzzSessionFrames feeds arbitrary post-handshake frame sequences to a
// session: it must never panic, must end when the peer disconnects, and
// must not leave a handler running behind it.
func FuzzSessionFrames(f *testing.F) {
	verbs := []string{"PING", "SUBMIT", wire.VerbTrace, wire.VerbMux, wire.VerbRepl, "X"}
	f.Add([]byte{0, 0})
	f.Add([]byte{2, 0, 0, 2, '1', ' '})                                          // TRACE, then an unprefixed request
	f.Add([]byte{3, 0, 0, 2, '1', ' ', 1, 0})                                    // MUX, a correlated request, an uncorrelated one
	f.Add([]byte{2, 0, 3, 0, 1, 9, '4', ' ', 'a', ' ', '0', ' ', '1', ' ', 'x'}) // TRACE, MUX, traced mux request
	f.Add([]byte{4, 0, 0, 0})                                                    // REPL takeover
	tracer := telemetry.NewTracer(telemetry.TracerOptions{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var running atomic.Int32
		c, done := startConn(t, Config{
			Tracer:      tracer,
			Parallelism: 2,
			Gate:        func(id string) (string, error) { return id, nil },
			Repl:        func(*wire.Conn) {},
			Handler: func(ctx context.Context, p *Peer, f wire.Frame) wire.Frame {
				running.Add(1)
				defer running.Add(-1)
				return echo(ctx, p, f)
			},
		})
		// Responses are drained so the session never blocks on a write.
		go func() {
			for {
				if _, err := c.Read(); err != nil {
					return
				}
			}
		}()
		// Each frame is (verb index, payload length, payload bytes).
		for len(data) >= 2 {
			verb, n := verbs[int(data[0])%len(verbs)], int(data[1])
			data = data[2:]
			n = min(n, len(data))
			if err := c.Write(wire.Frame{Verb: verb, Payload: data[:n]}); err != nil {
				break // the session dropped the connection
			}
			data = data[n:]
		}
		c.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("session still running after the peer disconnected")
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("%d handlers still running after the session ended", n)
		}
	})
}

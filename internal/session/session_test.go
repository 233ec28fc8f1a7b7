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
	cn := &conn{cfg: &srv.cfg, c: wire.NewConn(a),
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

// hello sends one HELLO asking for caps and returns the answer.
func hello(t *testing.T, c *wire.Conn, caps string) wire.Frame {
	t.Helper()
	return call(t, c, wire.VerbHello, caps)
}

// wantGranted checks a HELLO answer: HELLO-OK listing granted, or the
// error verb when granted is "ERROR".
func wantGranted(t *testing.T, f wire.Frame, granted string) {
	t.Helper()
	if granted == "ERROR" {
		wantVerb(t, f, "ERROR")
		return
	}
	if f.Verb != wire.VerbHelloOK || string(f.Payload) != granted {
		t.Fatalf("got %s %q, want %s %q", f.Verb, f.Payload, wire.VerbHelloOK, granted)
	}
}

func TestCapabilityFramesInAnyOrder(t *testing.T) {
	tracer := telemetry.NewTracer(telemetry.TracerOptions{})
	tc := wire.TraceContext{Trace: telemetry.NewTraceID(), Sampled: true}
	ping := wire.Frame{Verb: "PING", Payload: []byte("hi")}
	stream := func(c *wire.Conn) { _ = c.WriteString(wire.VerbReplRec, "{}") }
	// unknownVerb answers like every real handler does to a verb it does
	// not know.
	unknownVerb := func(_ context.Context, _ *Peer, f wire.Frame) wire.Frame {
		return wire.Frame{Verb: "ERROR", Payload: []byte("unknown verb " + f.Verb)}
	}
	serialPing := func(t *testing.T, c *wire.Conn, _ <-chan struct{}) {
		wantVerb(t, call(t, c, "PING", "hi"), "ECHO-PING")
	}

	for _, tt := range []struct {
		name string
		cfg  Config
		// hellos are the HELLO payloads sent in turn on the serial loop;
		// granted the answers: HELLO-OK's payload, or "ERROR".
		hellos, granted []string
		// gateRuns is how often the identity gate ran during negotiation.
		gateRuns int32
		// then drives the connection afterwards.
		then func(t *testing.T, c *wire.Conn, done <-chan struct{})
	}{{
		name:   "trace twice",
		cfg:    Config{Tracer: tracer},
		hellos: []string{"trace", "trace"}, granted: []string{"trace", "trace"},
		then: func(t *testing.T, c *wire.Conn, _ <-chan struct{}) {
			resp, err := c.Call(wire.EncodeTraceCtx(tc, ping))
			if err != nil || resp.Verb != "ECHO-PING" || string(resp.Payload) != "hi" {
				t.Fatalf("traced request: %s, %v", resp, err)
			}
		},
	}, {
		// Declined: requests stay unprefixed.
		name:   "trace declined without a tracer",
		hellos: []string{"trace"}, granted: []string{""},
		then: serialPing,
	}, {
		name:   "repl without a hook",
		hellos: []string{"repl"}, granted: []string{""},
		then: serialPing,
	}, {
		name:   "repl hook takes over",
		cfg:    Config{Tracer: tracer, Repl: stream},
		hellos: []string{"trace repl"}, granted: []string{"trace repl"},
		gateRuns: 1,
		then: func(t *testing.T, c *wire.Conn, done <-chan struct{}) {
			if f, err := c.Read(); err != nil || f.Verb != wire.VerbReplRec {
				t.Fatalf("stream frame: %s, %v", f, err)
			}
			<-done // the session ends when the hook returns
		},
	}, {
		name:   "trace then mux",
		cfg:    Config{Tracer: tracer, Repl: stream},
		hellos: []string{"trace mux"}, granted: []string{"trace mux"},
		then: func(t *testing.T, c *wire.Conn, _ <-chan struct{}) {
			resp, err := c.Call(wire.EncodeMux(7, wire.EncodeTraceCtx(tc, ping)))
			if err != nil {
				t.Fatal(err)
			}
			id, inner, err := wire.DecodeMux(resp)
			if err != nil || id != 7 || inner.Verb != "ECHO-PING" || string(inner.Payload) != "hi" {
				t.Fatalf("mux'd traced request: id %d %s, %v", id, inner, err)
			}
		},
	}, {
		// After mux is granted every frame is a correlated request: a
		// HELLO is no longer negotiation and reaches the handler like any
		// verb.
		name:   "mux then trace",
		cfg:    Config{Tracer: tracer},
		hellos: []string{"mux"}, granted: []string{"mux"},
		then: func(t *testing.T, c *wire.Conn, _ <-chan struct{}) {
			resp, err := c.Call(wire.EncodeMux(1, wire.Frame{Verb: wire.VerbHello, Payload: []byte("trace")}))
			if err != nil {
				t.Fatal(err)
			}
			if _, inner, _ := wire.DecodeMux(resp); inner.Verb != "ECHO-HELLO" || string(inner.Payload) != "trace" {
				t.Fatalf("got %s", inner)
			}
		},
	}, {
		name:   "unknown tokens are ignored",
		cfg:    Config{Tracer: tracer},
		hellos: []string{"zstd trace window=4"}, granted: []string{"trace"},
		then: func(t *testing.T, c *wire.Conn, _ <-chan struct{}) {
			wantVerb(t, call(t, c, "PING", ""), "ERROR") // traced: the prefix is owed
		},
	}, {
		// repl is a one-way stream; mux needs request/response. Refused,
		// the connection stays serial and may ask again.
		name:   "mux and repl together are refused",
		cfg:    Config{Tracer: tracer, Repl: func(*wire.Conn) { t.Error("repl hook ran for a refused HELLO") }},
		hellos: []string{"mux repl", "trace mux repl", ""}, granted: []string{"ERROR", "ERROR", ""},
		then: serialPing,
	}, {
		// An older client's offers are ordinary unknown verbs now: the
		// handler declines them and the connection stays serial.
		name: "legacy offers reach the handler",
		cfg:  Config{Tracer: tracer, Repl: stream, Handler: unknownVerb},
		then: func(t *testing.T, c *wire.Conn, _ <-chan struct{}) {
			for _, verb := range []string{"TRACE", "MUX", "REPL"} {
				resp := call(t, c, verb, "")
				if resp.Verb != "ERROR" || string(resp.Payload) != "unknown verb "+verb {
					t.Fatalf("%s: got %s, want the handler's ERROR", verb, resp)
				}
			}
			wantGranted(t, hello(t, c, "mux"), "mux")
		},
	}} {
		t.Run(tt.name, func(t *testing.T) {
			var gateRuns atomic.Int32
			tt.cfg.Gate = func(id string) (string, error) { gateRuns.Add(1); return id, nil }
			c, done := startConn(t, tt.cfg)
			for i, caps := range tt.hellos {
				wantGranted(t, hello(t, c, caps), tt.granted[i])
			}
			if n := gateRuns.Load(); n != tt.gateRuns {
				t.Fatalf("gate ran %d times during negotiation, want %d", n, tt.gateRuns)
			}
			tt.then(t, c, done)
		})
	}
}

func TestMuxMalformedCorrelationDropsConnection(t *testing.T) {
	frameErrs := telemetry.NewRegistry().Counter("frame_errors", "")
	c, done := startConn(t, Config{Instruments: Instruments{Conn: wire.ConnInstruments{FrameErrors: frameErrs}}})
	wantGranted(t, hello(t, c, "mux"), "mux")
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
	wantGranted(t, hello(t, c, "mux"), "mux")
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
		wantGranted(t, hello(t, c, "trace"), "trace")
		wantVerb(t, call(t, c, "PING", ""), "ERROR")
		wantGranted(t, hello(t, c, "trace"), "trace")
	})
	t.Run("mux", func(t *testing.T) {
		c, done := startConn(t, Config{})
		wantGranted(t, hello(t, c, "mux"), "mux")
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
		wantGranted(t, hello(t, c, "trace"), "") // negotiation does not need the gate
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
		wantGranted(t, hello(t, c, "trace"), "")
		resp := call(t, c, "PING", "")
		if resp.Verb != "ERROR" || !strings.HasPrefix(string(resp.Payload), "gatekeeper: ") {
			t.Fatalf("first request: %s, want the gatekeeper refusal", resp)
		}
		<-done
	})
	t.Run("refused mux", func(t *testing.T) {
		c, done := startConn(t, Config{Gate: deny, Handler: local})
		wantGranted(t, hello(t, c, "mux"), "mux")
		resp := call(t, c, "PING", "9 ")
		id, inner, err := wire.DecodeMux(resp)
		if err != nil || id != 9 || inner.Verb != "ERROR" || !strings.HasPrefix(string(inner.Payload), "gatekeeper: ") {
			t.Fatalf("first request: id %d %s (%v), want the correlated gatekeeper refusal", id, inner, err)
		}
		<-done
	})
	t.Run("refused repl", func(t *testing.T) {
		c, done := startConn(t, Config{Gate: deny, Repl: func(*wire.Conn) { t.Error("repl hook ran for a refused identity") }})
		resp := hello(t, c, "repl")
		if resp.Verb != "ERROR" || !strings.HasPrefix(string(resp.Payload), "gatekeeper: ") {
			t.Fatalf("HELLO repl: %s, want the gatekeeper refusal", resp)
		}
		<-done
	})
}

// FuzzSessionFrames feeds arbitrary post-handshake frame sequences to a
// session: it must never panic, must end when the peer disconnects, and
// must not leave a handler running behind it.
func FuzzSessionFrames(f *testing.F) {
	verbs := []string{"PING", "SUBMIT", wire.VerbHello, "X"}
	// seed concatenates (verb index, payload) frames.
	seed := func(frames ...string) []byte {
		var out []byte
		for _, fr := range frames {
			out = append(out, fr[0], byte(len(fr)-1))
			out = append(out, fr[1:]...)
		}
		return out
	}
	f.Add(seed("\x00"))
	f.Add(seed("\x02trace", "\x001 "))                    // trace, then an unprefixed request
	f.Add(seed("\x02mux", "\x001 ", "\x01"))              // mux, a correlated request, an uncorrelated one
	f.Add(seed("\x02trace mux", "\x014 a 0 1 x"))         // trace and mux, a traced mux request
	f.Add(seed("\x02repl", "\x00"))                       // repl takeover
	f.Add(seed("\x02mux repl", "\x02zstd trace", "\x00")) // refused, unknown token, untraced request
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

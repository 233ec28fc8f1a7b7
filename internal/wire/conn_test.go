package wire

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"infogram/internal/faultinject"
	"infogram/internal/telemetry"
)

// deadServer listens, accepts connections, and never writes a byte back —
// the failure mode of a wedged or partitioned peer.
func deadServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return ln.Addr().String()
}

// Regression: Call against a server that accepts and never replies used to
// hang the caller forever. DialTimeout's duration now also bounds each
// post-dial frame operation.
func TestCallDeadServerTimesOut(t *testing.T) {
	addr := deadServer(t)
	conn, err := DialTimeout(addr, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	start := time.Now()
	_, err = conn.Call(Frame{Verb: "PING"})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Call against a dead server returned nil")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v; want deadline exceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Call took %v; the timeout did not bound it", elapsed)
	}
}

func TestCallContextDeadline(t *testing.T) {
	addr := deadServer(t)
	conn, err := Dial(addr) // no I/O timeout: only the context bounds it
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = conn.CallContext(ctx, Frame{Verb: "PING"})
	if err == nil {
		t.Fatal("CallContext returned nil against a dead server")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v; want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("CallContext took %v", elapsed)
	}
}

func TestCallContextCancelUnblocks(t *testing.T) {
	addr := deadServer(t)
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := conn.CallContext(ctx, Frame{Verb: "PING"})
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v; want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("CallContext did not unblock on cancellation")
	}
}

// A read cut off by the I/O deadline counts as a frame error: the peer
// stopped mid-protocol.
func TestDeadlineExpiryCountsFrameError(t *testing.T) {
	addr := deadServer(t)
	conn, err := DialTimeout(addr, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tel := telemetry.NewRegistry()
	frameErrs := tel.Counter("frame_errors", "test")
	conn.Instrument(ConnInstruments{FrameErrors: frameErrs})

	if _, err := conn.Call(Frame{Verb: "PING"}); err == nil {
		t.Fatal("expected timeout")
	}
	if frameErrs.Value() == 0 {
		t.Fatal("deadline expiry did not bump the frame-errors counter")
	}
}

// echoServer echoes every frame back with verb ECHO.
func echoServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer(HandlerFunc(func(c *Conn) {
		for {
			f, err := c.Read()
			if err != nil {
				return
			}
			if err := c.Write(Frame{Verb: "ECHO", Payload: f.Payload}); err != nil {
				return
			}
		}
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func TestReadFaultInjectedError(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	// The server only writes, so the client's reads are the only ones the
	// failpoint can fire on.
	srv := NewServer(HandlerFunc(func(c *Conn) {
		_ = c.Write(Frame{Verb: "FIRST", Payload: []byte("1")})
		_ = c.Write(Frame{Verb: "SECOND", Payload: []byte("2")})
		// Hold the connection open until the client is done.
		_, _ = c.Read()
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	faultinject.Arm(faultinject.WireRead, faultinject.Action{Err: errors.New("line cut"), Count: 1})
	if _, err := conn.Read(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v; want injected", err)
	}
	// The fault consumed its count and the frame it fired on: the
	// connection still works and delivers the next one.
	if f, err := conn.Read(); err != nil || f.Verb != "SECOND" {
		t.Fatalf("after fault: %v %v", f, err)
	}
}

func TestReadFaultDropSkipsOneFrame(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	srv := NewServer(HandlerFunc(func(c *Conn) {
		_ = c.Write(Frame{Verb: "FIRST", Payload: []byte("1")})
		_ = c.Write(Frame{Verb: "SECOND", Payload: []byte("2")})
		// Hold the connection open until the client is done.
		_, _ = c.Read()
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	faultinject.Arm(faultinject.WireRead, faultinject.Action{Drop: true, Count: 1})
	f, err := conn.Read()
	if err != nil {
		t.Fatal(err)
	}
	if f.Verb != "SECOND" {
		t.Fatalf("got %v; the armed drop should have discarded FIRST", f)
	}
}

func TestReadFaultTruncatesPayload(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	_, addr := echoServer(t)
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Arm after the request is written: with count 1 the verdict is
	// consumed by the client's read of the echo.
	if err := conn.Write(Frame{Verb: "PING", Payload: []byte("abcdefgh")}); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.WireRead, faultinject.Action{Truncate: 3, Count: 1})
	f, err := conn.Read()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload, []byte("abc")) {
		t.Fatalf("payload = %q; want truncated %q", f.Payload, "abc")
	}
}

func TestWriteFaultDropNeverSends(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	_, addr := echoServer(t)
	conn, err := DialTimeout(addr, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	faultinject.Arm(faultinject.WireWrite, faultinject.Action{Drop: true, Count: 1})
	start := time.Now()
	_, err = conn.Call(Frame{Verb: "PING", Payload: []byte("x")})
	if err == nil {
		t.Fatal("dropped request still produced a response")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v; want deadline (no response ever comes)", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("took %v", elapsed)
	}
}

func TestWriteFaultTruncateBreaksFrame(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	srvErrs := telemetry.NewRegistry().Counter("srv_frame_errors", "test")
	srv := NewServer(HandlerFunc(func(c *Conn) {
		c.SetIOTimeout(200 * time.Millisecond)
		c.Instrument(ConnInstruments{FrameErrors: srvErrs})
		for {
			f, err := c.Read()
			if err != nil {
				return
			}
			_ = c.Write(Frame{Verb: "ECHO", Payload: f.Payload})
		}
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := DialTimeout(addr, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	faultinject.Arm(faultinject.WireWrite, faultinject.Action{Truncate: 2, Count: 1})
	_, err = conn.Call(Frame{Verb: "PING", Payload: []byte("abcdefgh")})
	if err == nil {
		t.Fatal("truncated request still produced a response")
	}
	// The server saw a sender die mid-frame: its bounded read of the
	// missing payload bytes expires and counts a frame error.
	deadline := time.Now().Add(5 * time.Second)
	for srvErrs.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srvErrs.Value() == 0 {
		t.Fatal("server never counted the broken frame")
	}
}

func TestSetIOTimeoutBoundsRead(t *testing.T) {
	addr := deadServer(t)
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetIOTimeout(100 * time.Millisecond)
	start := time.Now()
	if _, err := conn.Read(); err == nil {
		t.Fatal("Read returned nil with nothing to read")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Read took %v", elapsed)
	}
	// Clearing the timeout restores unbounded reads (verified indirectly:
	// a fresh short deadline still applies per-operation, i.e. deadlines
	// are not sticky from the expired one).
	conn.SetIOTimeout(50 * time.Millisecond)
	if _, err := conn.Read(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("per-operation deadline did not re-arm")
	}
}

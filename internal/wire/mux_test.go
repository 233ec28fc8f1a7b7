package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"infogram/internal/faultinject"
)

func TestMuxEncodeDecodeRoundTrip(t *testing.T) {
	for _, id := range []uint64{1, 42, 1 << 40} {
		in := Frame{Verb: "RESULT-LDIF", Payload: []byte("dn: kw=CPULoad\nload1: 2\n")}
		id2, out, err := DecodeMux(EncodeMux(id, in))
		if err != nil {
			t.Fatalf("id %d: %v", id, err)
		}
		if id2 != id || out.Verb != in.Verb || !bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("round trip mangled: id %d->%d, %s -> %s", id, id2, in, out)
		}
	}
	// Empty inner payload survives.
	id, out, err := DecodeMux(EncodeMux(7, Frame{Verb: "PING"}))
	if err != nil || id != 7 || len(out.Payload) != 0 {
		t.Fatalf("empty payload: id=%d payload=%q err=%v", id, out.Payload, err)
	}
}

func TestDecodeMuxRejectsMalformed(t *testing.T) {
	for _, payload := range []string{"", "noid", "12x34 rest", " leading", "-1 neg"} {
		if _, _, err := DecodeMux(Frame{Verb: "PONG", Payload: []byte(payload)}); !errors.Is(err, ErrMuxSyntax) {
			t.Errorf("payload %q: err = %v; want ErrMuxSyntax", payload, err)
		}
	}
}

// muxPair builds a client MuxConn whose peer end is served by handler in
// its own goroutine, over a real TCP socket.
func muxPair(t *testing.T, handler func(c *Conn)) *MuxConn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	done := make(chan struct{})
	go func() {
		defer close(done)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		handler(NewConn(nc))
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	m := NewMuxConn(NewConn(nc))
	t.Cleanup(func() {
		m.Close()
		<-done
	})
	return m
}

// The demux must route responses arriving in the opposite order of their
// requests back to the right callers.
func TestMuxOutOfOrderResponses(t *testing.T) {
	m := muxPair(t, func(c *Conn) {
		// Read two requests, answer them in reverse order.
		var frames []Frame
		for len(frames) < 2 {
			f, err := c.Read()
			if err != nil {
				return
			}
			frames = append(frames, f)
		}
		for i := len(frames) - 1; i >= 0; i-- {
			id, inner, err := DecodeMux(frames[i])
			if err != nil {
				return
			}
			_ = c.Write(EncodeMux(id, Frame{Verb: "ECHO", Payload: inner.Payload}))
		}
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("payload-%d", i)
			resp, err := m.Call(ctx, Frame{Verb: "REQ", Payload: []byte(want)})
			if err != nil {
				errs[i] = err
				return
			}
			if string(resp.Payload) != want {
				errs[i] = fmt.Errorf("cross-wired response: got %q, want %q", resp.Payload, want)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
}

// Concurrent callers hammering one connection must each get their own
// response back (run under -race).
func TestMuxConcurrentCallsCorrelate(t *testing.T) {
	m := muxPair(t, func(c *Conn) {
		for {
			f, err := c.Read()
			if err != nil {
				return
			}
			id, inner, err := DecodeMux(f)
			if err != nil {
				return
			}
			// Respond from separate goroutines so replies interleave
			// arbitrarily; Conn serializes the writes.
			go func() {
				_ = c.Write(EncodeMux(id, Frame{Verb: "ECHO", Payload: inner.Payload}))
			}()
		}
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const workers, calls = 16, 25
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				want := fmt.Sprintf("w%d-i%d", w, i)
				resp, err := m.Call(ctx, Frame{Verb: "REQ", Payload: []byte(want)})
				if err != nil {
					errCh <- err
					return
				}
				if string(resp.Payload) != want {
					errCh <- fmt.Errorf("cross-wired: got %q, want %q", resp.Payload, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// Connection death must fail every in-flight call promptly and poison
// future calls, not strand callers forever.
func TestMuxConnDeathFailsInflight(t *testing.T) {
	release := make(chan struct{})
	m := muxPair(t, func(c *Conn) {
		_, _ = c.Read() // swallow the request, never answer
		<-release
		c.Close()
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	callErr := make(chan error, 1)
	go func() {
		_, err := m.Call(ctx, Frame{Verb: "REQ"})
		callErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call get in flight
	close(release)
	select {
	case err := <-callErr:
		if err == nil {
			t.Fatal("call succeeded although the peer died")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung after connection death")
	}
	if m.Err() == nil {
		t.Fatal("MuxConn.Err() nil after connection death")
	}
	if _, err := m.Call(ctx, Frame{Verb: "REQ"}); err == nil {
		t.Fatal("call on a dead mux connection succeeded")
	}
}

// A call whose context expires fails alone: the connection stays healthy
// and the late response is discarded by correlation ID, so a subsequent
// call is not cross-wired.
func TestMuxCallTimeoutFailsAlone(t *testing.T) {
	hold := make(chan struct{})
	m := muxPair(t, func(c *Conn) {
		first := true
		for {
			f, err := c.Read()
			if err != nil {
				return
			}
			id, inner, err := DecodeMux(f)
			if err != nil {
				return
			}
			if first {
				first = false
				<-hold // park the first response past its caller's deadline
			}
			_ = c.Write(EncodeMux(id, Frame{Verb: "ECHO", Payload: inner.Payload}))
		}
	})
	defer close(hold)

	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := m.Call(short, Frame{Verb: "REQ", Payload: []byte("slow")}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out call: err = %v; want DeadlineExceeded", err)
	}
	if m.Err() != nil {
		t.Fatalf("per-call timeout killed the connection: %v", m.Err())
	}

	ctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	done := make(chan error, 1)
	go func() {
		resp, err := m.Call(ctx, Frame{Verb: "REQ", Payload: []byte("fast")})
		if err == nil && string(resp.Payload) != "fast" {
			err = fmt.Errorf("cross-wired: got %q", resp.Payload)
		}
		done <- err
	}()
	// Release the parked first response while the second call is in
	// flight: it must be dropped, not delivered to the second caller.
	time.Sleep(20 * time.Millisecond)
	hold <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("follow-up call after sibling timeout: %v", err)
	}
}

// A call whose write times out — the peer stopped reading — fails the
// connection, not only the call: part of the frame may be buffered or
// sent, and the writer keeps its error, so every later call would fail
// the same way while the connection still looked healthy.
func TestMuxWriteTimeoutFailsConn(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close() // the peer never reads
	m := NewMuxConn(NewConn(a))
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := m.Call(ctx, Frame{Verb: "REQ", Payload: []byte("stuck")}); err == nil {
		t.Fatal("a call whose write cannot complete succeeded")
	}
	if m.Err() == nil {
		t.Fatal("a failed write left the connection reporting healthy")
	}
	if _, err := m.Call(context.Background(), Frame{Verb: "REQ"}); err == nil {
		t.Fatal("a call on the dead connection succeeded")
	}
}

// A wire.write failpoint refuses a call before anything is buffered: that
// call fails alone and the next one goes through.
func TestMuxWriteFailpointFailsAlone(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	m := muxPair(t, func(c *Conn) {
		for {
			f, err := c.Read()
			if err != nil {
				return
			}
			_ = c.Write(f)
		}
	})
	faultinject.Arm(faultinject.WireWrite, faultinject.Action{Count: 1})
	if _, err := m.Call(context.Background(), Frame{Verb: "REQ"}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("refused call: err = %v; want the injected fault", err)
	}
	if err := m.Err(); err != nil {
		t.Fatalf("a refused write killed the connection: %v", err)
	}
	resp, err := m.Call(context.Background(), Frame{Verb: "REQ", Payload: []byte("next")})
	if err != nil || string(resp.Payload) != "next" {
		t.Fatalf("call after the refusal = %q, %v", resp.Payload, err)
	}
}

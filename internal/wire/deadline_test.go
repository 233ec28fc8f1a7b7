package wire

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// replyServer answers HANG never and SLOW after delay, and reports each
// request it reads on got.
func replyServer(t *testing.T, delay time.Duration, got chan<- string) string {
	t.Helper()
	stop := make(chan struct{})
	srv := NewServer(HandlerFunc(func(c *Conn) {
		for {
			f, err := c.Read()
			if err != nil {
				return
			}
			got <- f.Verb
			if f.Verb == "HANG" {
				<-stop
				return
			}
			time.Sleep(delay)
			if err := c.Write(Frame{Verb: "PONG"}); err != nil {
				return
			}
		}
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(stop)
		srv.Close()
	})
	return addr
}

// A call cancelled while it waits for its reply returns context.Canceled,
// and leaves nothing behind that cuts a later call short: the next calls,
// on a fresh connection and under contexts of their own that stay live,
// wait out a slow reply.
func TestCancelledCallLeavesNextCallWhole(t *testing.T) {
	got := make(chan string, 4)
	addr := replyServer(t, 50*time.Millisecond, got)
	a, err := DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.CallContext(ctx, Frame{Verb: "HANG"})
		done <- err
	}()
	<-got // the request is written; the call is reading
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call: err = %v; want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the cancelled call did not return")
	}

	b, err := DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		f, err := b.CallContext(ctx, Frame{Verb: "SLOW"})
		cancel()
		if err != nil || f.Verb != "PONG" {
			t.Fatalf("call %d after a cancelled one: %v, %v; want PONG", i, f, err)
		}
		<-got
	}
}

// A cancellation racing a call that has already finished cannot cut the
// connection's next call short: the call waits out a cancellation
// callback already running before it clears the deadline. (A cancel that
// does interrupt its call breaks the connection; the test then moves to
// a fresh one.)
func TestLateCancelDoesNotPoisonNextCall(t *testing.T) {
	dial := func() (*Conn, func()) {
		a, b := net.Pipe()
		go func() {
			r := NewConn(b)
			for {
				if _, err := r.Read(); err != nil {
					return
				}
				if err := r.Write(Frame{Verb: "PONG"}); err != nil {
					return
				}
			}
		}()
		return NewConn(a), func() { a.Close(); b.Close() }
	}
	c, closeConn := dial()
	defer func() { closeConn() }()
	survived := 0
	for i := 0; i < 1000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		if _, err := c.CallContext(ctx, Frame{Verb: "PING"}); err != nil {
			closeConn()
			c, closeConn = dial()
			continue
		}
		survived++
		if _, err := c.Call(Frame{Verb: "PING"}); err != nil {
			t.Fatalf("call after a racing cancel %d: %v", i, err)
		}
	}
	if survived == 0 {
		t.Fatal("every racing cancel interrupted its call; the case under test never ran")
	}
}

package wire

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"infogram/internal/faultinject"
)

func TestCloseTwiceIsNoOp(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	c := NewConn(a)
	if err := c.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// After Close the frame buffers belong to the pools again, so Read and
// Write must fail before touching them.
func TestReadWriteAfterCloseFail(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	c := NewConn(a)
	c.Close()
	if _, err := c.Read(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Read after Close: %v, want net.ErrClosed", err)
	}
	if err := c.Write(Frame{Verb: "PING"}); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Write after Close: %v, want net.ErrClosed", err)
	}
	if _, err := c.Call(Frame{Verb: "PING"}); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Call after Close: %v, want net.ErrClosed", err)
	}
}

// Close must unblock a read and a write parked on the socket before it
// takes their mutexes back, or it would deadlock against them.
func TestCloseUnblocksReadAndWrite(t *testing.T) {
	a, b := net.Pipe() // nobody ever reads or writes b
	defer b.Close()
	c := NewConn(a)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errs := make(chan error, 2)
	go func() {
		_, err := c.ReadContext(ctx)
		errs <- err
	}()
	go func() {
		// Larger than the write buffer, so the write blocks in the pipe.
		errs <- c.WriteContext(ctx, Frame{Verb: "DATA", Payload: make([]byte, 4*bufSize)})
	}()
	time.Sleep(20 * time.Millisecond) // let both park on the pipe
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked against a blocked read and write")
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("blocked operation succeeded on a closed connection")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("blocked operation did not return after Close")
		}
	}
}

// An injected delay on a frame read or write runs outside the frame
// mutexes, so Close does not wait for it; the delayed operation then fails
// as on any closed connection.
func TestCloseNotHeldByFailpointDelay(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	for _, p := range []faultinject.Point{faultinject.WireRead, faultinject.WireWrite} {
		t.Run(string(p), func(t *testing.T) {
			a, b := net.Pipe()
			defer b.Close()
			c := NewConn(a)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			hits := faultinject.Triggered(p) // cumulative across tests
			faultinject.Arm(p, faultinject.Action{Delay: time.Hour, Count: 1})
			defer faultinject.Disarm(p)
			done := make(chan error, 1)
			if p == faultinject.WireRead {
				// The read failpoint fires once a frame has arrived.
				go func() { _ = NewConn(b).Write(Frame{Verb: "PING"}) }()
				go func() {
					_, err := c.ReadContext(ctx)
					done <- err
				}()
			} else {
				go func() { done <- c.WriteContext(ctx, Frame{Verb: "PING"}) }()
			}
			for faultinject.Triggered(p) == hits {
				time.Sleep(time.Millisecond)
			}
			closed := make(chan error, 1)
			go func() { closed <- c.Close() }()
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Close waited for an injected delay")
			}
			cancel()
			if err := <-done; err == nil {
				t.Error("delayed operation succeeded on a closed connection")
			}
		})
	}
}

// The server closes each *Conn once its handler returns, so the frame
// buffers of a finished connection go back to the pools.
func TestServerClosesConnAfterHandler(t *testing.T) {
	leaked := make(chan *Conn, 1)
	srv := NewServer(HandlerFunc(func(c *Conn) { leaked <- c }))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	c := <-leaked
	srv.Close() // waits for the handler goroutine, deferred Close included
	c.rmu.Lock()
	c.wmu.Lock()
	returned := c.r == nil && c.w == nil
	c.wmu.Unlock()
	c.rmu.Unlock()
	if !returned {
		t.Error("frame buffers still held after the handler returned")
	}
	if err := c.Write(Frame{Verb: "PING"}); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Write on a finished handler's Conn: %v, want net.ErrClosed", err)
	}
}

// nopConn is a net.Conn whose Close does nothing, so the pin below
// measures only what NewConn and Close themselves allocate.
type nopConn struct{ net.Conn }

func (*nopConn) Close() error { return nil }

// A warm NewConn+Close borrows its 32 KiB of frame buffers instead of
// allocating them: what is left is the Conn itself.
func TestNewConnCloseBorrowsBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	nc := &nopConn{}
	NewConn(nc).Close() // warm the pools
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		NewConn(nc).Close()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 1<<10 {
		t.Errorf("NewConn+Close allocates %d B, want well under 1 KiB", per)
	}
}

package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"infogram/internal/faultinject"
	"infogram/internal/telemetry"
)

// Conn wraps a net.Conn with buffered frame I/O. Reads and writes are each
// serialized by their own mutex so a connection can be shared between a
// request writer and a callback reader (the GRAM client does this for
// status callbacks).
type Conn struct {
	nc net.Conn

	rmu sync.Mutex
	r   *bufio.Reader

	wmu  sync.Mutex
	w    *bufio.Writer
	whdr [64]byte // frame-header scratch, guarded by wmu

	callMu sync.Mutex

	// ioTimeout bounds each individual frame read and write, in
	// nanoseconds. Zero means unbounded (context deadlines, when present,
	// still apply). Atomic so SetIOTimeout is safe while a reader or
	// writer goroutine is in flight.
	ioTimeout atomic.Int64

	// instr is atomic for the same reason: the server attaches telemetry
	// while the connection may already be shared.
	instr atomic.Pointer[ConnInstruments]
}

// ConnInstruments holds the optional per-connection telemetry. Nil metrics
// are no-ops, so a zero value disables instrumentation.
type ConnInstruments struct {
	// BytesRead counts frame bytes successfully read.
	BytesRead *telemetry.Counter
	// BytesWritten counts frame bytes successfully written.
	BytesWritten *telemetry.Counter
	// FrameErrors counts framing failures (malformed headers, oversized
	// payloads, short reads, I/O deadline expiries) in either direction.
	FrameErrors *telemetry.Counter
}

// Instrument attaches telemetry to the connection. The write is atomic,
// so it is safe even when the connection is already shared between
// goroutines; operations that raced the attach simply go uncounted.
func (c *Conn) Instrument(i ConnInstruments) { c.instr.Store(&i) }

// instruments snapshots the attached telemetry (zero value when none).
func (c *Conn) instruments() ConnInstruments {
	if p := c.instr.Load(); p != nil {
		return *p
	}
	return ConnInstruments{}
}

// NewConn wraps nc for frame I/O.
func NewConn(nc net.Conn) *Conn {
	return &Conn{
		nc: nc,
		r:  bufio.NewReaderSize(nc, 16<<10),
		w:  bufio.NewWriterSize(nc, 16<<10),
	}
}

// Dial connects to addr over TCP and wraps the connection.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(nc), nil
}

// DialTimeout is Dial with a connect timeout. The same duration becomes
// the connection's per-operation I/O timeout, so a peer that accepts and
// then goes silent cannot hang a subsequent Read or Call forever.
func DialTimeout(addr string, d time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	c := NewConn(nc)
	c.SetIOTimeout(d)
	return c, nil
}

// SetIOTimeout bounds every subsequent frame read and write individually;
// zero removes the bound. The write is atomic, so it is safe while other
// goroutines are already reading or writing; operations that are already
// in flight keep the deadline they armed with.
func (c *Conn) SetIOTimeout(d time.Duration) { c.ioTimeout.Store(int64(d)) }

// finNop finishes an operation that armed no deadline and no watcher.
var finNop = func(err error) error { return err }

// armDeadline installs the effective deadline — the earlier of the
// per-operation I/O timeout and the context deadline — on the write (or,
// with write false, read) side of the underlying conn, and watches the
// context so cancellation interrupts an in-flight operation. The returned
// function must be called exactly once with the operation's error: it
// stops the watcher, clears the deadline, and maps a deadline expiry
// caused by the context back to the context's error.
func (c *Conn) armDeadline(ctx context.Context, write bool) func(error) error {
	var dl time.Time
	if io := time.Duration(c.ioTimeout.Load()); io > 0 {
		dl = time.Now().Add(io)
	}
	ctxBound := false
	if d, ok := ctx.Deadline(); ok && (dl.IsZero() || d.Before(dl)) {
		dl = d
		ctxBound = true
	}
	watch := ctx.Done() != nil
	if dl.IsZero() && !watch {
		return finNop
	}
	// The method value is created only past the fast path above, keeping
	// deadline-free frame I/O allocation-free.
	set := c.nc.SetReadDeadline
	if write {
		set = c.nc.SetWriteDeadline
	}
	if !dl.IsZero() {
		_ = set(dl)
	}
	var stop, exited chan struct{}
	if watch {
		stop = make(chan struct{})
		exited = make(chan struct{})
		go func() {
			defer close(exited)
			select {
			case <-ctx.Done():
				// A deadline in the past fails the in-flight operation
				// immediately with os.ErrDeadlineExceeded.
				_ = set(time.Unix(1, 0))
			case <-stop:
			}
		}()
	}
	return func(err error) error {
		if watch {
			close(stop)
			<-exited
		}
		_ = set(time.Time{})
		if err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("wire: %w", cerr)
			}
			// The armed deadline was the context's, but the net poller's
			// timer can fire a hair before the context's own — report the
			// deadline the caller actually set.
			if ctxBound {
				return fmt.Errorf("wire: %w", context.DeadlineExceeded)
			}
		}
		return err
	}
}

// Read reads the next frame, blocking until one arrives (bounded by the
// connection's I/O timeout, if set).
func (c *Conn) Read() (Frame, error) {
	return c.ReadContext(context.Background())
}

// ReadContext reads the next frame; the context's deadline and
// cancellation bound the read in addition to the connection's I/O
// timeout.
func (c *Conn) ReadContext(ctx context.Context) (Frame, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	for {
		fin := c.armDeadline(ctx, false)
		f, err := ReadFrame(c.r)
		raw := err
		err = fin(err)
		instr := c.instruments()
		switch {
		case err == nil:
			instr.BytesRead.Add(int64(f.WireSize()))
		case IsFrameError(raw) || errors.Is(raw, os.ErrDeadlineExceeded):
			instr.FrameErrors.Inc()
		}
		if err != nil {
			return Frame{}, err
		}
		// The failpoint fires once a frame has arrived, not when the read
		// starts: a reader already parked on an idle connection would
		// otherwise have evaluated it long before the test armed it, and
		// the fault would land an exchange late.
		v, ferr := faultinject.Eval(ctx, faultinject.WireRead)
		if ferr != nil {
			return Frame{}, ferr
		}
		if v.Drop {
			continue // injected drop: discard this frame, deliver the next
		}
		if v.Truncate > 0 && len(f.Payload) > v.Truncate {
			f.Payload = f.Payload[:v.Truncate]
		}
		return f, nil
	}
}

// Write writes f and flushes it to the network.
func (c *Conn) Write(f Frame) error {
	return c.WriteContext(context.Background(), f)
}

// WriteContext writes f and flushes it; the context's deadline and
// cancellation bound the write in addition to the connection's I/O
// timeout.
func (c *Conn) WriteContext(ctx context.Context, f Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	v, ferr := faultinject.Eval(ctx, faultinject.WireWrite)
	if ferr != nil {
		return ferr
	}
	if v.Drop {
		return nil // injected drop: report success without sending
	}
	fin := c.armDeadline(ctx, true)
	wrote := f.WireSize()
	var err error
	if v.Truncate > 0 && len(f.Payload) > v.Truncate {
		// Injected truncation: the header advertises the full payload
		// length but only Truncate bytes follow, so the peer sees a
		// sender that died mid-frame.
		err = writeTruncatedFrame(c.w, f, v.Truncate)
		wrote -= len(f.Payload) - v.Truncate
	} else {
		// The header is built in the connection's scratch buffer (wmu is
		// held), so a steady-state frame write allocates nothing.
		err = writeFrameInto(c.w, f, c.whdr[:0])
	}
	if err == nil {
		err = c.w.Flush()
	}
	raw := err
	err = fin(err)
	instr := c.instruments()
	if raw != nil {
		if IsFrameError(raw) || errors.Is(raw, os.ErrDeadlineExceeded) {
			instr.FrameErrors.Inc()
		}
		return err
	}
	instr.BytesWritten.Add(int64(wrote))
	return nil
}

// WriteString writes a frame with a string payload.
func (c *Conn) WriteString(verb, payload string) error {
	return c.Write(Frame{Verb: verb, Payload: []byte(payload)})
}

// Call writes a request frame and reads a single response frame. It is the
// basic request/response step used by all three protocol clients. Calls are
// serialized per connection so concurrent callers sharing a client cannot
// interleave each other's request/response pairs. Each leg is bounded by
// the connection's I/O timeout, if set.
func (c *Conn) Call(req Frame) (Frame, error) {
	return c.CallContext(context.Background(), req)
}

// CallContext is Call bounded by the context's deadline and cancellation.
func (c *Conn) CallContext(ctx context.Context, req Frame) (Frame, error) {
	c.callMu.Lock()
	defer c.callMu.Unlock()
	if err := c.WriteContext(ctx, req); err != nil {
		return Frame{}, err
	}
	return c.ReadContext(ctx)
}

// SetDeadline sets the read and write deadline on the underlying conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.nc.SetDeadline(t) }

// RemoteAddr returns the remote network address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// LocalAddr returns the local network address.
func (c *Conn) LocalAddr() net.Addr { return c.nc.LocalAddr() }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

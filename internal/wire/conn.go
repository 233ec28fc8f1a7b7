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
//
// The frame buffers are on loan from package pools for as long as the
// connection is open: Close returns them, and nils the fields under the
// mutex that guards each, so a Read or Write after Close fails with
// net.ErrClosed instead of touching a buffer another connection now owns.
type Conn struct {
	nc     net.Conn
	closed atomic.Bool

	rmu sync.Mutex
	r   *bufio.Reader // nil once closed

	wmu  sync.Mutex
	w    *bufio.Writer // nil once closed
	whdr [128]byte     // frame-header and prefix scratch, guarded by wmu

	// watches[d-1] serves the exchanges over directions d: bare reads
	// (under rmu), bare writes (under wmu) and calls (under callMu), so
	// each is used by one exchange at a time (see arm).
	watches [dirBoth]watch

	callMu sync.Mutex

	// readTimeout and writeTimeout bound each exchange — a bare frame
	// read or write, or a whole Call — in nanoseconds. Zero means
	// unbounded (context deadlines, when present, still apply). Atomic so
	// the setters are safe while a reader or writer goroutine is in
	// flight.
	readTimeout, writeTimeout atomic.Int64

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
	// UnboundedReads and UnboundedWrites count frame operations that ran
	// with no deadline at all: no I/O timeout and a context that can
	// neither expire nor be cancelled.
	UnboundedReads, UnboundedWrites *telemetry.Counter
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

// bufSize is the size of each frame buffer. Payloads larger than it
// stream through the buffer; ReadFrame copies every payload out of it.
const bufSize = 16 << 10

// The frame buffers every open Conn borrows: a connect-per-request client
// would otherwise allocate 32 KiB per connection on each end.
var (
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, bufSize) }}
	writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, bufSize) }}
)

// errClosed is what a Read or Write on a closed Conn returns.
var errClosed = fmt.Errorf("wire: %w", net.ErrClosed)

// NewConn wraps nc for frame I/O.
func NewConn(nc net.Conn) *Conn {
	r := readerPool.Get().(*bufio.Reader)
	r.Reset(nc)
	w := writerPool.Get().(*bufio.Writer)
	w.Reset(nc)
	return &Conn{nc: nc, r: r, w: w}
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
// the connection's per-exchange I/O timeout, so a peer that accepts and
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

// SetIOTimeout bounds every subsequent exchange; zero removes the bound.
// An exchange is a bare Read or Write, bounded frame by frame, or a
// Call, whose request write and response read share one deadline set
// when the call starts. The write is atomic, so it is safe while other
// goroutines are already reading or writing; exchanges already in
// flight keep the deadline they armed with.
func (c *Conn) SetIOTimeout(d time.Duration) {
	c.readTimeout.Store(int64(d))
	c.writeTimeout.Store(int64(d))
}

// SetReadTimeout is SetIOTimeout for the read side alone: writes keep
// their bound. A reader that only waits for the peer to hang up uses it
// to wait without limit while its writes stay bounded.
func (c *Conn) SetReadTimeout(d time.Duration) { c.readTimeout.Store(int64(d)) }

// dirs names the directions of the connection one exchange bounds.
type dirs uint8

const (
	dirRead dirs = 1 << iota
	dirWrite
	dirBoth = dirRead | dirWrite
)

// watch is the cancellation machinery of one direction set: the
// callback a cancelled context runs, built on first use and kept for the
// life of the connection, and the WaitGroup a finishing exchange waits
// out a running callback on.
type watch struct {
	cut  func()
	wake sync.WaitGroup
}

// exchange is one armed exchange; finish ends it. Its zero value armed
// nothing and finishes as a no-op.
type exchange struct {
	c        *Conn
	ctx      context.Context
	stop     func() bool // the watcher's; nil when none runs
	d        dirs
	ctxBound bool // the context's deadline is the one set
}

// arm starts an exchange over directions d. It sets one deadline on
// every direction in d — the earlier of the I/O timeout and the
// context's deadline — and, only when ctx can be cancelled, starts one
// context.AfterFunc watcher that cuts the exchange short. An exchange
// bounded by neither counts as one unbounded operation per direction.
// The caller holds the lock that serializes d's exchanges (see watches)
// and calls finish once with the exchange's error.
func (c *Conn) arm(ctx context.Context, d dirs, instr *ConnInstruments) exchange {
	var dl time.Time
	if io := c.ioTimeout(d); io > 0 {
		dl = time.Now().Add(io)
	}
	ctxBound := false
	if cd, ok := ctx.Deadline(); ok && (dl.IsZero() || cd.Before(dl)) {
		dl, ctxBound = cd, true
	}
	cancellable := ctx.Done() != nil
	if dl.IsZero() && !cancellable {
		if d&dirRead != 0 {
			instr.UnboundedReads.Inc()
		}
		if d&dirWrite != 0 {
			instr.UnboundedWrites.Inc()
		}
		return exchange{}
	}
	if !dl.IsZero() {
		c.setDeadline(d, dl)
	}
	x := exchange{c: c, ctx: ctx, d: d, ctxBound: ctxBound}
	if cancellable {
		w := &c.watches[d-1]
		if w.cut == nil {
			w.cut = func() {
				// A deadline in the past fails the in-flight operation
				// immediately with os.ErrDeadlineExceeded.
				c.setDeadline(d, time.Unix(1, 0))
				w.wake.Done()
			}
		}
		w.wake.Add(1)
		x.stop = context.AfterFunc(ctx, w.cut)
	}
	return x
}

// ioTimeout is the I/O timeout of an exchange over d: a call's is the
// shorter of the read and write timeouts that are set.
func (c *Conn) ioTimeout(d dirs) time.Duration {
	r, w := time.Duration(c.readTimeout.Load()), time.Duration(c.writeTimeout.Load())
	switch {
	case d == dirRead:
		return r
	case d == dirWrite:
		return w
	case r == 0 || w == 0:
		return max(r, w)
	}
	return min(r, w)
}

// finish ends the exchange with its operation's error: it stops the
// watcher (waiting out a running callback, which could cut the next
// exchange short), clears the deadline, and maps an expiry caused by the
// context to the context's error.
func (x exchange) finish(err error) error {
	if x.c == nil {
		return err
	}
	if x.stop != nil {
		w := &x.c.watches[x.d-1]
		if x.stop() {
			w.wake.Done()
		}
		w.wake.Wait()
	}
	x.c.setDeadline(x.d, time.Time{})
	if err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
		if cerr := x.ctx.Err(); cerr != nil {
			return fmt.Errorf("wire: %w", cerr)
		}
		// The armed deadline was the context's, but the net poller's
		// timer can fire a hair before the context's own — report the
		// deadline the caller actually set.
		if x.ctxBound {
			return fmt.Errorf("wire: %w", context.DeadlineExceeded)
		}
	}
	return err
}

func (c *Conn) setDeadline(d dirs, t time.Time) {
	switch d {
	case dirRead:
		_ = c.nc.SetReadDeadline(t)
	case dirWrite:
		_ = c.nc.SetWriteDeadline(t)
	default:
		_ = c.nc.SetDeadline(t)
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
	return c.readContext(ctx, true)
}

// readContext is ReadContext; with arm false the caller's exchange
// already bounds the read.
func (c *Conn) readContext(ctx context.Context, arm bool) (Frame, error) {
	for {
		f, err := c.readFrame(ctx, arm)
		if err != nil {
			return Frame{}, err
		}
		// The failpoint fires once a frame has arrived, not when the read
		// starts: a reader already parked on an idle connection would
		// otherwise have evaluated it long before the test armed it, and
		// the fault would land an exchange late. It runs outside rmu, so
		// an injected delay or hang holds no lock Close waits for.
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

// readFrame reads one frame under rmu, in an exchange of its own when
// arm is set.
func (c *Conn) readFrame(ctx context.Context, arm bool) (Frame, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if c.r == nil {
		return Frame{}, errClosed
	}
	instr := c.instruments()
	var x exchange
	if arm {
		x = c.arm(ctx, dirRead, &instr)
	}
	f, err := ReadFrame(c.r)
	raw := err
	err = x.finish(err)
	switch {
	case err == nil:
		instr.BytesRead.Add(int64(f.WireSize()))
	case IsFrameError(raw) || errors.Is(raw, os.ErrDeadlineExceeded):
		instr.FrameErrors.Inc()
	}
	return f, err
}

// Write writes f and flushes it to the network.
func (c *Conn) Write(f Frame) error {
	return c.WriteContext(context.Background(), f)
}

// WriteContext writes f and flushes it; the context's deadline and
// cancellation bound the write in addition to the connection's I/O
// timeout.
func (c *Conn) WriteContext(ctx context.Context, f Frame) error {
	return c.WritePrefixed(ctx, Prefix{}, f)
}

// WritePrefixed writes the frame p.Encode(f), with the prefix written
// straight into the connection's buffer instead of copied before f.
func (c *Conn) WritePrefixed(ctx context.Context, p Prefix, f Frame) error {
	return c.writePrefixed(ctx, p, f, true)
}

// writePrefixed is WritePrefixed; with arm false the caller's exchange
// already bounds the write.
func (c *Conn) writePrefixed(ctx context.Context, p Prefix, f Frame, arm bool) error {
	// The failpoint runs before wmu is taken, so an injected delay or
	// hang holds no lock Close waits for.
	v, ferr := faultinject.Eval(ctx, faultinject.WireWrite)
	if ferr != nil {
		return ferr
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.w == nil {
		return errClosed
	}
	if v.Drop {
		return nil // injected drop: report success without sending
	}
	instr := c.instruments()
	var x exchange
	if arm {
		x = c.arm(ctx, dirWrite, &instr)
	}
	// Header and prefix are built in the connection's scratch buffer (wmu
	// is held), so a steady-state frame write allocates nothing.
	pre := p.append(c.whdr[64:64])
	n := len(pre) + len(f.Payload)
	wrote := wireSize(f.Verb, n)
	var err error
	if v.Truncate > 0 && n > v.Truncate {
		// Injected truncation: the header advertises the full payload
		// length but only Truncate bytes follow, so the peer sees a
		// sender that died mid-frame.
		body := append(pre, f.Payload...)[:v.Truncate]
		err = writeFrame(c.w, f.Verb, n, nil, body)
		wrote -= n - v.Truncate
	} else {
		err = writeFrame(c.w, f.Verb, n, c.whdr[:0], pre, f.Payload)
	}
	if err == nil {
		err = c.w.Flush()
	}
	raw := err
	err = x.finish(err)
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
// interleave each other's request/response pairs. A call is one exchange:
// the connection's I/O timeout, if set, bounds the write and the read
// together, from the call's start.
func (c *Conn) Call(req Frame) (Frame, error) {
	return c.CallContext(context.Background(), req)
}

// CallContext is Call bounded by the context's deadline and cancellation.
func (c *Conn) CallContext(ctx context.Context, req Frame) (Frame, error) {
	return c.CallPrefixed(ctx, Prefix{}, req)
}

// CallPrefixed is CallContext for a request written with WritePrefixed.
// The request and the response share one deadline, the earlier of the
// I/O timeout and the context's, and at most one watcher, so a call owns
// both directions while it runs: a bare Read or Write on the connection
// meanwhile would move its deadline.
func (c *Conn) CallPrefixed(ctx context.Context, p Prefix, req Frame) (Frame, error) {
	c.callMu.Lock()
	defer c.callMu.Unlock()
	instr := c.instruments()
	x := c.arm(ctx, dirBoth, &instr)
	err := c.writePrefixed(ctx, p, req, false)
	var f Frame
	if err == nil {
		f, err = c.readContext(ctx, false)
	}
	if err = x.finish(err); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// Close closes the underlying connection and returns the frame buffers to
// their pools. It waits for a frame read or write already in progress to
// finish; closing nc first makes one blocked on the socket return at once.
// A second Close is a no-op.
func (c *Conn) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := c.nc.Close()
	c.rmu.Lock()
	c.r.Reset(nil)
	readerPool.Put(c.r)
	c.r = nil
	c.rmu.Unlock()
	c.wmu.Lock()
	c.w.Reset(nil)
	writerPool.Put(c.w)
	c.w = nil
	c.wmu.Unlock()
	return err
}

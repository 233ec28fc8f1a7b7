package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"infogram/internal/faultinject"
)

// Multiplexing rides on top of the frame layout as the "mux" capability
// of the HELLO exchange (hello.go). Once a mux-aware server has granted
// it, every frame on the connection — both directions — carries a decimal
// correlation ID prefixed to its payload:
//
//	VERB SP DECIMAL-LENGTH LF DECIMAL-ID SP payload-bytes
//
// The verb grammar and frame header are untouched, so mux'd traffic flows
// through the same transport code path (deadlines, instrumentation,
// failpoints) as serial traffic, and a peer that never asks for mux, or a
// server that declines it, keeps strictly serial framing.

// ErrMuxSyntax reports a frame that should carry a correlation ID but
// does not.
var ErrMuxSyntax = errors.New("wire: malformed mux correlation id")

// ErrMuxClosed is returned for calls issued against a closed MuxConn.
var ErrMuxClosed = errors.New("wire: mux connection closed")

// EncodeMux wraps f with the correlation ID, producing the frame that
// actually crosses the wire in mux mode.
func EncodeMux(id uint64, f Frame) Frame { return Prefix{Mux: true, ID: id}.Encode(f) }

// DecodeMux splits a mux-framed message into its correlation ID and the
// inner frame. The inner payload aliases f's buffer (no copy).
func DecodeMux(f Frame) (uint64, Frame, error) {
	sp := bytes.IndexByte(f.Payload, ' ')
	if sp <= 0 {
		return 0, Frame{}, fmt.Errorf("%w: %s", ErrMuxSyntax, f)
	}
	id, err := strconv.ParseUint(string(f.Payload[:sp]), 10, 64)
	if err != nil {
		return 0, Frame{}, fmt.Errorf("%w: %s", ErrMuxSyntax, f)
	}
	return id, Frame{Verb: f.Verb, Payload: f.Payload[sp+1:]}, nil
}

// muxResult is one correlated response (or the call's failure).
type muxResult struct {
	f   Frame
	err error
}

// MuxConn is the client end of a multiplexed connection: it assigns each
// call a correlation ID, lets any number of goroutines issue calls
// concurrently, and routes responses — arriving in any order — back to
// the caller that owns them. When the connection dies, every in-flight
// call fails with the transport error, and Err reports it thereafter.
type MuxConn struct {
	conn   *Conn
	nextID atomic.Uint64

	mu    sync.Mutex
	calls map[uint64]chan muxResult
	err   error
}

// NewMuxConn starts demultiplexing conn. The server must already have
// granted CapMux (Negotiate); after this call the MuxConn owns
// the connection's read side. Any per-operation I/O timeout is cleared:
// the reader must be allowed to block on an idle connection, and each
// call's context bounds its own wait instead.
func NewMuxConn(conn *Conn) *MuxConn {
	conn.SetIOTimeout(0)
	m := &MuxConn{conn: conn, calls: make(map[uint64]chan muxResult)}
	go m.readLoop()
	return m
}

// readLoop is the single demultiplexer: it owns conn's read side, routes
// each response to the caller registered under its correlation ID, and on
// transport death fails every in-flight call. The wire.mux failpoint
// evaluates per response, so fault injection can poison exactly one
// in-flight call (error, drop, truncate, delay) while its siblings on the
// same connection proceed.
func (m *MuxConn) readLoop() {
	for {
		f, err := m.conn.Read()
		if err != nil {
			m.fail(err)
			return
		}
		id, inner, err := DecodeMux(f)
		if err != nil {
			m.fail(err)
			m.conn.Close()
			return
		}
		if v, ferr := faultinject.Eval(context.Background(), faultinject.WireMux); ferr != nil {
			m.deliver(id, muxResult{err: ferr})
			continue
		} else if v.Drop {
			continue // injected drop: this call's response evaporates
		} else if v.Truncate > 0 && len(inner.Payload) > v.Truncate {
			inner.Payload = inner.Payload[:v.Truncate]
		}
		m.deliver(id, muxResult{f: inner})
	}
}

// deliver hands a result to the caller waiting on id; responses nobody
// waits for (the caller timed out and forgot the ID) are discarded.
func (m *MuxConn) deliver(id uint64, r muxResult) {
	m.mu.Lock()
	ch := m.calls[id]
	delete(m.calls, id)
	m.mu.Unlock()
	if ch != nil {
		ch <- r
	}
}

// fail marks the connection dead and fails every in-flight call.
func (m *MuxConn) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	err = m.err // the first error (e.g. ErrMuxClosed) is the sticky one
	calls := m.calls
	m.calls = make(map[uint64]chan muxResult)
	m.mu.Unlock()
	for _, ch := range calls {
		ch <- muxResult{err: err}
	}
}

// forget abandons a pending call (its caller gave up).
func (m *MuxConn) forget(id uint64) {
	m.mu.Lock()
	delete(m.calls, id)
	m.mu.Unlock()
}

// Call performs one correlated request/response exchange. It is safe for
// concurrent use: calls in flight at the same time share the connection
// and their responses may return in any order. The context bounds the
// whole exchange; a call that times out fails alone without poisoning
// the connection for its siblings (the late response, if any, is
// discarded by its correlation ID).
func (m *MuxConn) Call(ctx context.Context, req Frame) (Frame, error) {
	return m.CallPrefixed(ctx, Prefix{}, req)
}

// CallPrefixed is Call for a request whose payload follows p's trace
// context (see Conn.WritePrefixed); the correlation ID is the call's own.
func (m *MuxConn) CallPrefixed(ctx context.Context, p Prefix, req Frame) (Frame, error) {
	id := m.nextID.Add(1)
	ch := make(chan muxResult, 1)
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return Frame{}, err
	}
	m.calls[id] = ch
	m.mu.Unlock()
	p.Mux, p.ID = true, id
	if err := m.conn.WritePrefixed(ctx, p, req); err != nil {
		m.forget(id)
		return Frame{}, err
	}
	select {
	case r := <-ch:
		return r.f, r.err
	case <-ctx.Done():
		m.forget(id)
		return Frame{}, fmt.Errorf("wire: mux call: %w", ctx.Err())
	}
}

// Err reports the transport error that killed the connection, or nil
// while it is healthy. Callers distinguishing "my call failed" from "the
// connection is dead" (a per-call timeout versus a broken conn) check
// this after a failed Call.
func (m *MuxConn) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Conn returns the underlying framed connection (for Close bookkeeping
// and address accessors; reading it directly would corrupt the demux).
func (m *MuxConn) Conn() *Conn { return m.conn }

// Close closes the underlying connection; the read loop then fails any
// in-flight calls and future calls return ErrMuxClosed.
func (m *MuxConn) Close() error {
	m.mu.Lock()
	if m.err == nil {
		m.err = ErrMuxClosed
	}
	m.mu.Unlock()
	return m.conn.Close()
}

package session

import (
	"context"
	"fmt"
	"net"
	"time"

	"infogram/internal/clock"
	"infogram/internal/gsi"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
)

// DialOptions configures the dial side of a session.
type DialOptions struct {
	// Credential authenticates the client; Trust verifies the server.
	Credential *gsi.Credential
	Trust      *gsi.TrustStore
	// Clock defaults to the system clock.
	Clock clock.Clock
	// DialTimeout bounds the TCP connect and then each frame read and
	// write, so a peer that accepts and goes silent cannot hang a later
	// call. Zero means unbounded.
	DialTimeout time.Duration
	// Timeout bounds the handshake and the capability exchange. Zero
	// leaves them to ctx.
	Timeout time.Duration
	// Trace, Mux and Repl name the capabilities to ask for in the one
	// HELLO exchange after the handshake; whatever the server declines
	// (an older one answers ERROR) stays in the legacy mode. Asking for
	// none sends no HELLO. Repl makes the connection a one-way stream, so
	// Mux is not asked for with it.
	Trace, Mux, Repl bool
}

// Client is the dial side of an established session: one authenticated
// connection and the capabilities the server granted on it.
type Client struct {
	Conn *wire.Conn
	// Peer is the authenticated server identity.
	Peer *gsi.Peer
	// Mux is non-nil when the server granted mux; it owns Conn's read
	// side and concurrent Calls share the connection out of order.
	Mux *wire.MuxConn
	// Traced reports that the server granted trace: Call prefixes every
	// request with the caller's trace context.
	Traced bool
	// Repl reports that the server granted repl: the record stream
	// follows on Conn.
	Repl bool
}

// Dial connects to addr over TCP, authenticates, and negotiates the
// capabilities o asks for. ctx bounds the whole establishment.
func Dial(ctx context.Context, addr string, o DialOptions) (*Client, error) {
	d := net.Dialer{Timeout: o.DialTimeout}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("session: dial %s: %w", addr, err)
	}
	cl := &Client{Conn: wire.NewConn(nc)}
	cl.Conn.SetIOTimeout(o.DialTimeout)
	if err := cl.establish(ctx, o); err != nil {
		cl.Conn.Close()
		return nil, err
	}
	return cl, nil
}

func (cl *Client) establish(ctx context.Context, o DialOptions) error {
	// bound derives the context of one exchange.
	bound := func() (context.Context, context.CancelFunc) {
		if o.Timeout > 0 {
			return context.WithTimeout(ctx, o.Timeout)
		}
		return ctx, func() {}
	}
	clk := o.Clock
	if clk == nil {
		clk = clock.System
	}
	sctx, cancel := bound()
	peer, err := gsi.ClientHandshakeContext(sctx, cl.Conn, o.Credential, o.Trust, clk.Now())
	cancel()
	if err != nil {
		return err
	}
	cl.Peer = peer
	var want wire.Caps
	if o.Trace {
		want |= wire.CapTrace
	}
	switch {
	case o.Repl:
		want |= wire.CapRepl
	case o.Mux:
		want |= wire.CapMux
	}
	sctx, cancel = bound()
	granted, err := wire.Negotiate(sctx, cl.Conn, want)
	cancel()
	if err != nil {
		return err
	}
	cl.Traced = granted&wire.CapTrace != 0
	cl.Repl = granted&wire.CapRepl != 0
	if granted&wire.CapMux != 0 {
		cl.Mux = wire.NewMuxConn(cl.Conn)
	}
	return nil
}

// Call performs one request/response exchange: correlated on a mux'd
// connection, serialized otherwise. On a traced connection the caller's
// trace context — the current span when ctx carries one, the bare trace
// ID otherwise, a freshly minted trace as the last resort — is prefixed
// to the request so the server joins the caller's trace.
func (cl *Client) Call(ctx context.Context, req wire.Frame) (wire.Frame, error) {
	if cl.Traced {
		tc := wire.TraceContext{Sampled: true}
		if sp := telemetry.SpanFrom(ctx); sp != nil {
			tc.Trace, tc.Parent = sp.Trace(), sp.ID()
		} else if trace := telemetry.TraceFrom(ctx); trace != "" {
			tc.Trace = trace
		} else {
			tc.Trace = telemetry.NewTraceID()
		}
		req = wire.EncodeTraceCtx(tc, req)
	}
	if cl.Mux != nil {
		return cl.Mux.Call(ctx, req)
	}
	return cl.Conn.CallContext(ctx, req)
}

// Broken reports whether the connection must be dropped after a failed
// Call. A mux'd call that failed alone (its deadline expired, the
// transport stayed healthy) leaves it usable: the correlation ID discards
// the late response. On a serial connection the unread response would
// answer the next request.
func (cl *Client) Broken() bool { return cl.Mux == nil || cl.Mux.Err() != nil }

// Close closes the connection.
func (cl *Client) Close() error {
	if cl.Mux != nil {
		return cl.Mux.Close()
	}
	return cl.Conn.Close()
}

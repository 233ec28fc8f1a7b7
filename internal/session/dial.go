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
	// Timeout bounds the handshake and each capability exchange. Zero
	// leaves them to ctx.
	Timeout time.Duration
	// Trace, Mux and Repl name the capabilities to offer after the
	// handshake, one round trip each; a server that declines (an older
	// one answers ERROR) leaves the connection in the legacy mode. TRACE
	// goes before MUX because the demultiplexer takes over the read side;
	// REPL makes the connection a one-way stream, so MUX is not offered
	// with it.
	Trace, Mux, Repl bool
}

// Client is the dial side of an established session: one authenticated
// connection and the capabilities the server accepted on it.
type Client struct {
	Conn *wire.Conn
	// Peer is the authenticated server identity.
	Peer *gsi.Peer
	// Mux is non-nil when the server accepted MUX; it owns Conn's read
	// side and concurrent Calls share the connection out of order.
	Mux *wire.MuxConn
	// Traced reports that the server accepted TRACE: Call prefixes every
	// request with the caller's trace context.
	Traced bool
	// Repl is the leader's manifest when the server accepted REPL (the
	// stream follows on Conn); nil when it declined or was not asked.
	Repl *wire.ReplManifest
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
	if o.Trace {
		sctx, cancel := bound()
		cl.Traced, err = wire.NegotiateTrace(sctx, cl.Conn)
		cancel()
		if err != nil {
			return err
		}
	}
	switch {
	case o.Repl:
		sctx, cancel := bound()
		m, accepted, err := wire.NegotiateRepl(sctx, cl.Conn)
		cancel()
		if err != nil {
			return err
		}
		if accepted {
			cl.Repl = &m
		}
	case o.Mux:
		sctx, cancel := bound()
		accepted, err := wire.NegotiateMux(sctx, cl.Conn)
		cancel()
		if err != nil {
			return err
		}
		if accepted {
			cl.Mux = wire.NewMuxConn(cl.Conn)
		}
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

package core

import (
	"context"
	"time"

	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/session"
	"infogram/internal/wire"
)

// ErrPoolClosed is returned by every pool operation after Close.
var ErrPoolClosed = session.ErrPoolClosed

// PoolOptions configures a connection pool. Size, IdleTimeout and
// HealthCheckAfter mean what the session.PoolOptions fields of the same
// names do.
type PoolOptions struct {
	Size             int
	IdleTimeout      time.Duration
	HealthCheckAfter time.Duration
	// Client configures each pooled Client (timeouts, retry policy,
	// telemetry, mux); its Clock and Telemetry also serve the pool.
	Client Options
}

// Pool is session.Pool over Clients of one service, with typed helpers
// that run one request on a lease. Checked-out clients are exclusive
// leases; because each Client is itself mux-capable and concurrency-safe,
// callers who want request-level sharing can also hold one checkout
// long-term — the pool's job is elasticity and health, not serialization.
type Pool struct {
	*session.Pool[*Client]
}

// NewPool creates a pool; no connections are dialed until first checkout.
func NewPool(addr string, cred *gsi.Credential, trust *gsi.TrustStore, opts PoolOptions) *Pool {
	dial := func(ctx context.Context) (*Client, error) {
		return dialContext(ctx, addr, cred, trust, opts.Client)
	}
	ping := func(ctx context.Context, c *Client) error { return c.PingContext(ctx) }
	return &Pool{session.NewPool(dial, ping, session.PoolOptions{
		Size:             opts.Size,
		IdleTimeout:      opts.IdleTimeout,
		HealthCheckAfter: opts.HealthCheckAfter,
		Clock:            opts.Client.Clock,
		Telemetry:        opts.Client.Telemetry,
	})}
}

// do runs one operation on a leased connection: transient transport
// failures discard the lease (the client already retried under its own
// policy), anything else returns it for reuse.
func do[T any](p *Pool, ctx context.Context, fn func(*Client) (T, error)) (T, error) {
	c, err := p.Checkout(ctx)
	if err != nil {
		var zero T
		return zero, err
	}
	v, err := fn(c)
	if err != nil && isTransient(err) {
		p.Discard(c)
	} else {
		p.Checkin(c)
	}
	return v, err
}

// Ping checks service liveness over a pooled connection.
func (p *Pool) Ping(ctx context.Context) error {
	_, err := do(p, ctx, func(c *Client) (struct{}, error) { return struct{}{}, c.PingContext(ctx) })
	return err
}

// QueryRaw evaluates raw xRSL expected to be an information query over a
// pooled connection. The caller's context (and trace context, when it
// carries one) rides along to the leased client.
func (p *Pool) QueryRaw(ctx context.Context, xrslSrc string) (InfoResult, error) {
	return do(p, ctx, func(c *Client) (InfoResult, error) { return c.QueryRawContext(ctx, xrslSrc) })
}

// Submit sends raw xRSL for job execution over a pooled connection.
func (p *Pool) Submit(ctx context.Context, xrslSrc string) (string, error) {
	return do(p, ctx, func(c *Client) (string, error) { return c.SubmitContext(ctx, xrslSrc) })
}

// Forward relays one already-formed request frame over a pooled
// connection and returns the raw response frame. See
// Client.ForwardContext; this is the cluster proxy's per-backend
// primitive.
func (p *Pool) Forward(ctx context.Context, req wire.Frame, idempotent bool) (wire.Frame, error) {
	return do(p, ctx, func(c *Client) (wire.Frame, error) { return c.ForwardContext(ctx, req, idempotent) })
}

// Status polls a job by contact over a pooled connection.
func (p *Pool) Status(ctx context.Context, contact string) (gram.StatusReply, error) {
	return do(p, ctx, func(c *Client) (gram.StatusReply, error) { return c.StatusContext(ctx, contact) })
}

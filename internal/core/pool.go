package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"infogram/internal/clock"
	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
	"infogram/internal/xrsl"
)

// ErrPoolClosed is returned by every pool operation after Close.
var ErrPoolClosed = fmt.Errorf("infogram: pool closed")

// PoolOptions configures a connection pool.
type PoolOptions struct {
	// Size bounds the number of pooled connections (checked out plus
	// idle). Defaults to 4.
	Size int
	// IdleTimeout is how long an unused connection may sit idle before
	// the reaper closes it. Defaults to 1 minute.
	IdleTimeout time.Duration
	// HealthCheckAfter is the idle age beyond which a connection is
	// pinged before being handed out; a failed ping evicts it and a fresh
	// connection is dialed instead. Defaults to 1 second.
	HealthCheckAfter time.Duration
	// Client configures each pooled Client (timeouts, retry policy,
	// telemetry, mux).
	Client Options
}

func (o PoolOptions) size() int {
	if o.Size <= 0 {
		return 4
	}
	return o.Size
}

func (o PoolOptions) idleTimeout() time.Duration {
	if o.IdleTimeout <= 0 {
		return time.Minute
	}
	return o.IdleTimeout
}

func (o PoolOptions) healthCheckAfter() time.Duration {
	if o.HealthCheckAfter <= 0 {
		return time.Second
	}
	return o.HealthCheckAfter
}

// pooled is one idle pool entry.
type pooled struct {
	client   *Client
	lastUsed time.Time
}

// Pool amortizes the GSI handshake across requests: a bounded set of
// authenticated connections is reused instead of dialing (and paying the
// three-message handshake) per request. Checked-out clients are exclusive
// leases; because each Client is itself mux-capable and concurrency-safe,
// callers who want request-level sharing can also hold one checkout
// long-term — the pool's job is elasticity and health, not serialization.
//
// Connections are handed out most-recently-used first so a bursty workload
// keeps a small hot set and the reaper can retire the cold tail. A
// connection idle past HealthCheckAfter is pinged before reuse; a failed
// ping transparently evicts it and dials fresh, so a server restart costs
// one extra round trip instead of an error surfaced to the caller.
type Pool struct {
	addr  string
	cred  *gsi.Credential
	trust *gsi.TrustStore
	opts  PoolOptions
	clk   clock.Clock

	// slots bounds checked-out-plus-idle connections at opts.size().
	slots chan struct{}

	mu     sync.Mutex
	idle   []*pooled // LIFO: most recently used last
	closed bool

	stop       chan struct{}
	reaperDone chan struct{}

	connsOpen    *telemetry.Gauge
	connsIdle    *telemetry.Gauge
	checkoutWait *telemetry.Histogram
}

// NewPool creates a pool; no connections are dialed until first checkout.
func NewPool(addr string, cred *gsi.Credential, trust *gsi.TrustStore, opts PoolOptions) *Pool {
	if opts.Client.Clock == nil {
		opts.Client.Clock = clock.System
	}
	p := &Pool{
		addr:       addr,
		cred:       cred,
		trust:      trust,
		opts:       opts,
		clk:        opts.Client.Clock,
		slots:      make(chan struct{}, opts.size()),
		stop:       make(chan struct{}),
		reaperDone: make(chan struct{}),
	}
	if tel := opts.Client.Telemetry; tel != nil {
		p.connsOpen = tel.Gauge("infogram_pool_conns_open", "pooled connections currently open (checked out plus idle)")
		p.connsIdle = tel.Gauge("infogram_pool_conns_idle", "pooled connections sitting idle")
		p.checkoutWait = tel.Histogram("infogram_pool_checkout_wait_seconds", "time callers waited for a pool slot")
	}
	go p.reaper()
	return p
}

// Checkout leases a connection, dialing and authenticating a fresh one
// only when no healthy idle connection exists. Blocks while the pool is at
// capacity until a lease is returned, the context expires, or the pool
// closes. The caller must return the lease with Checkin (healthy) or
// Discard (observed failing).
func (p *Pool) Checkout(ctx context.Context) (*Client, error) {
	select {
	case <-p.stop:
		return nil, ErrPoolClosed
	default:
	}
	start := p.clk.Now()
	select {
	case p.slots <- struct{}{}:
	case <-p.stop:
		return nil, ErrPoolClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	p.checkoutWait.Observe(p.clk.Now().Sub(start))

	for {
		entry := p.popIdle()
		if entry == nil {
			break
		}
		if p.clk.Now().Sub(entry.lastUsed) <= p.opts.healthCheckAfter() {
			return entry.client, nil
		}
		// Idle long enough that the server may have restarted or cut us
		// off: verify before handing it to a caller. The ping and the dial
		// below run under ctx, so a member that went silent without a
		// reset cannot hold the caller past its deadline.
		if entry.client.PingContext(ctx) == nil {
			return entry.client, nil
		}
		entry.client.Close()
		p.connsOpen.Dec()
		if err := ctx.Err(); err != nil {
			<-p.slots
			return nil, err
		}
	}

	client, err := dialContext(ctx, p.addr, p.cred, p.trust, p.opts.Client)
	if err != nil {
		<-p.slots
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	p.connsOpen.Inc()
	return client, nil
}

// popIdle takes the most recently used idle connection, or nil.
func (p *Pool) popIdle() *pooled {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.idle) == 0 {
		return nil
	}
	entry := p.idle[len(p.idle)-1]
	p.idle = p.idle[:len(p.idle)-1]
	p.connsIdle.Dec()
	return entry
}

// Checkin returns a healthy lease to the pool for reuse.
func (p *Pool) Checkin(c *Client) {
	if c == nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		p.connsOpen.Dec()
		<-p.slots
		return
	}
	p.idle = append(p.idle, &pooled{client: c, lastUsed: p.clk.Now()})
	p.connsIdle.Inc()
	p.mu.Unlock()
	<-p.slots
}

// Discard closes a lease observed failing instead of returning it; the
// freed slot lets the next checkout dial fresh.
func (p *Pool) Discard(c *Client) {
	if c != nil {
		c.Close()
		p.connsOpen.Dec()
	}
	<-p.slots
}

// Close shuts the pool: idle connections are closed, the reaper exits, and
// every subsequent or blocked Checkout returns ErrPoolClosed. Leases still
// checked out stay usable; their Checkin closes them.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	close(p.stop)
	for _, entry := range idle {
		entry.client.Close()
		p.connsOpen.Dec()
		p.connsIdle.Dec()
	}
	<-p.reaperDone
	return nil
}

// reaper periodically closes connections idle past IdleTimeout so a burst
// does not pin its peak connection count (and the server-side resources
// behind it) forever.
func (p *Pool) reaper() {
	defer close(p.reaperDone)
	interval := p.opts.idleTimeout() / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			p.reapIdle()
		}
	}
}

// reapIdle closes every idle connection older than IdleTimeout.
func (p *Pool) reapIdle() {
	cutoff := p.clk.Now().Add(-p.opts.idleTimeout())
	var expired []*pooled
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	keep := p.idle[:0]
	for _, entry := range p.idle {
		if entry.lastUsed.Before(cutoff) {
			expired = append(expired, entry)
		} else {
			keep = append(keep, entry)
		}
	}
	p.idle = keep
	p.mu.Unlock()
	for _, entry := range expired {
		entry.client.Close()
		p.connsOpen.Dec()
		p.connsIdle.Dec()
	}
}

// Stats reports the pool's current shape: open counts checked-out plus
// idle connections, idle the subset sitting unused.
func (p *Pool) Stats() (open, idle int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.slots) + len(p.idle), len(p.idle)
}

// do runs one operation on a leased connection: transient transport
// failures discard the lease (the client already retried under its own
// policy), anything else returns it for reuse.
func (p *Pool) do(ctx context.Context, fn func(*Client) error) error {
	c, err := p.Checkout(ctx)
	if err != nil {
		return err
	}
	err = fn(c)
	if err != nil && isTransient(err) {
		p.Discard(c)
	} else {
		p.Checkin(c)
	}
	return err
}

// Ping checks service liveness over a pooled connection.
func (p *Pool) Ping(ctx context.Context) error {
	return p.do(ctx, func(c *Client) error { return c.PingContext(ctx) })
}

// QueryRaw evaluates raw xRSL expected to be an information query over a
// pooled connection. The caller's context (and trace context, when it
// carries one) rides along to the leased client.
func (p *Pool) QueryRaw(ctx context.Context, xrslSrc string) (InfoResult, error) {
	var res InfoResult
	err := p.do(ctx, func(c *Client) error {
		var err error
		res, err = c.QueryRawContext(ctx, xrslSrc)
		return err
	})
	return res, err
}

// Query sends a typed information request over a pooled connection.
func (p *Pool) Query(ctx context.Context, req xrsl.InfoRequest) (InfoResult, error) {
	return p.QueryRaw(ctx, req.Encode())
}

// Submit sends raw xRSL for job execution over a pooled connection.
func (p *Pool) Submit(ctx context.Context, xrslSrc string) (string, error) {
	var contact string
	err := p.do(ctx, func(c *Client) error {
		var err error
		contact, err = c.SubmitContext(ctx, xrslSrc)
		return err
	})
	return contact, err
}

// Forward relays one already-formed request frame over a pooled
// connection and returns the raw response frame. See
// Client.ForwardContext; this is the cluster proxy's per-backend
// primitive.
func (p *Pool) Forward(ctx context.Context, req wire.Frame, idempotent bool) (wire.Frame, error) {
	var resp wire.Frame
	err := p.do(ctx, func(c *Client) error {
		var err error
		resp, err = c.ForwardContext(ctx, req, idempotent)
		return err
	})
	return resp, err
}

// Status polls a job by contact over a pooled connection.
func (p *Pool) Status(ctx context.Context, contact string) (gram.StatusReply, error) {
	var reply gram.StatusReply
	err := p.do(ctx, func(c *Client) error {
		var err error
		reply, err = c.StatusContext(ctx, contact)
		return err
	})
	return reply, err
}

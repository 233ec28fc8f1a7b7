package session

import (
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"infogram/internal/clock"
	"infogram/internal/telemetry"
)

// ErrPoolClosed is returned by every pool operation after Close.
var ErrPoolClosed = errors.New("infogram: pool closed")

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
	// Clock stamps and ages idle connections; defaults to the system
	// clock.
	Clock clock.Clock
	// Telemetry optionally receives infogram_pool_conns_open/_idle and
	// infogram_pool_checkout_wait_seconds.
	Telemetry *telemetry.Registry
}

// idleConn is one idle pool entry, held by value so that parking and
// reusing a connection allocates nothing.
type idleConn[C io.Closer] struct {
	conn     C
	lastUsed time.Time
}

// Pool amortizes the GSI handshake across requests: a bounded set of
// authenticated connections is reused instead of dialing (and paying the
// three-message handshake) per request. Checked-out connections are
// exclusive leases. It is the one pool implementation: the InfoGram
// client pool (core.Pool, used by the cluster router and the load
// generator) and the GIIS fan-out to its members both lease from it.
//
// Connections are handed out most-recently-used first so a bursty workload
// keeps a small hot set and the reaper can retire the cold tail. A
// connection idle past HealthCheckAfter is pinged before reuse; a failed
// ping evicts it and dials fresh, so a server restart costs one extra
// round trip instead of an error surfaced to the caller.
type Pool[C io.Closer] struct {
	dial             func(context.Context) (C, error)
	ping             func(context.Context, C) error
	clk              clock.Clock
	idleTimeout      time.Duration
	healthCheckAfter time.Duration

	// slots bounds checked-out-plus-idle connections at Size.
	slots chan struct{}

	mu     sync.Mutex
	idle   []idleConn[C] // LIFO: most recently used last
	closed bool

	stop       chan struct{}
	reaperDone chan struct{}

	connsOpen    *telemetry.Gauge
	connsIdle    *telemetry.Gauge
	checkoutWait *telemetry.Histogram
}

// NewPool creates a pool over dial, which establishes one authenticated
// connection, and ping, which checks that an idle one still answers. No
// connection is dialed until the first checkout.
func NewPool[C io.Closer](dial func(context.Context) (C, error), ping func(context.Context, C) error, opts PoolOptions) *Pool[C] {
	if opts.Size <= 0 {
		opts.Size = 4
	}
	if opts.IdleTimeout <= 0 {
		opts.IdleTimeout = time.Minute
	}
	if opts.HealthCheckAfter <= 0 {
		opts.HealthCheckAfter = time.Second
	}
	if opts.Clock == nil {
		opts.Clock = clock.System
	}
	p := &Pool[C]{
		dial:             dial,
		ping:             ping,
		clk:              opts.Clock,
		idleTimeout:      opts.IdleTimeout,
		healthCheckAfter: opts.HealthCheckAfter,
		slots:            make(chan struct{}, opts.Size),
		stop:             make(chan struct{}),
		reaperDone:       make(chan struct{}),
	}
	if tel := opts.Telemetry; tel != nil {
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
func (p *Pool[C]) Checkout(ctx context.Context) (C, error) {
	var zero C
	select {
	case <-p.stop:
		return zero, ErrPoolClosed
	default:
	}
	// A free slot is taken without reading the clock; the one read after
	// it serves both the wait histogram and the idle-age test below.
	var now time.Time
	var wait time.Duration
	select {
	case p.slots <- struct{}{}:
		now = p.clk.Now()
	default:
		start := p.clk.Now()
		select {
		case p.slots <- struct{}{}:
		case <-p.stop:
			return zero, ErrPoolClosed
		case <-ctx.Done():
			return zero, ctx.Err()
		}
		now = p.clk.Now()
		wait = now.Sub(start)
	}
	p.checkoutWait.Observe(wait)

	for {
		entry, ok := p.popIdle()
		if !ok {
			break
		}
		if now.Sub(entry.lastUsed) <= p.healthCheckAfter {
			return entry.conn, nil
		}
		// Idle long enough that the server may have restarted or cut us
		// off: verify before handing it to a caller. The ping and the dial
		// below run under ctx, so a member that went silent without a
		// reset cannot hold the caller past its deadline.
		if p.ping(ctx, entry.conn) == nil {
			return entry.conn, nil
		}
		entry.conn.Close()
		p.connsOpen.Dec()
		if err := ctx.Err(); err != nil {
			<-p.slots
			return zero, err
		}
	}

	conn, err := p.dial(ctx)
	if err != nil {
		<-p.slots
		if ctx.Err() != nil {
			return zero, ctx.Err()
		}
		return zero, err
	}
	p.connsOpen.Inc()
	return conn, nil
}

// TryCheckout leases a connection only when that takes no wait and no
// I/O: a free slot and an idle connection used within HealthCheckAfter.
// Otherwise it takes nothing and reports false, and the caller goes
// through Checkout. The lease is returned as Checkout's is.
func (p *Pool[C]) TryCheckout() (C, bool) {
	var zero C
	select {
	case p.slots <- struct{}{}:
	default:
		return zero, false
	}
	now := p.clk.Now()
	p.mu.Lock()
	n := len(p.idle)
	if p.closed || n == 0 || now.Sub(p.idle[n-1].lastUsed) > p.healthCheckAfter {
		p.mu.Unlock()
		<-p.slots
		return zero, false
	}
	conn := p.idle[n-1].conn
	p.idle[n-1] = idleConn[C]{} // drop the reference the backing array holds
	p.idle = p.idle[:n-1]
	p.mu.Unlock()
	p.connsIdle.Dec()
	p.checkoutWait.Observe(0)
	return conn, true
}

// popIdle takes the most recently used idle connection.
func (p *Pool[C]) popIdle() (idleConn[C], bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if p.closed || n == 0 {
		return idleConn[C]{}, false
	}
	entry := p.idle[n-1]
	p.idle[n-1] = idleConn[C]{} // drop the reference the backing array holds
	p.idle = p.idle[:n-1]
	p.connsIdle.Dec()
	return entry, true
}

// Checkin returns a healthy lease to the pool for reuse. A lease returned
// after Close is closed instead.
func (p *Pool[C]) Checkin(c C) {
	now := p.clk.Now()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		p.connsOpen.Dec()
		<-p.slots
		return
	}
	p.idle = append(p.idle, idleConn[C]{conn: c, lastUsed: now})
	p.connsIdle.Inc()
	p.mu.Unlock()
	<-p.slots
}

// Discard closes a lease observed failing instead of returning it; the
// freed slot lets the next checkout dial fresh.
func (p *Pool[C]) Discard(c C) {
	c.Close()
	p.connsOpen.Dec()
	<-p.slots
}

// Close shuts the pool: idle connections are closed, the reaper exits, and
// every subsequent or blocked Checkout returns ErrPoolClosed. Leases still
// checked out stay usable; their Checkin closes them.
func (p *Pool[C]) Close() error {
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
		entry.conn.Close()
		p.connsOpen.Dec()
		p.connsIdle.Dec()
	}
	<-p.reaperDone
	return nil
}

// reaper periodically closes connections idle past IdleTimeout so a burst
// does not pin its peak connection count (and the server-side resources
// behind it) forever.
func (p *Pool[C]) reaper() {
	defer close(p.reaperDone)
	interval := max(p.idleTimeout/2, 10*time.Millisecond)
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
func (p *Pool[C]) reapIdle() { p.closeIdle(p.clk.Now().Add(-p.idleTimeout)) }

// CloseIdle closes every idle connection, so the next checkout dials
// fresh. A caller that saw a lease fail for a reason its idle siblings
// likely share (a server restart) drops them all at once instead of
// meeting each on a later request. Leases stay untouched.
func (p *Pool[C]) CloseIdle() { p.closeIdle(time.Time{}) }

// closeIdle closes the idle connections last used before cutoff, or
// every idle connection when cutoff is zero.
func (p *Pool[C]) closeIdle(cutoff time.Time) {
	var expired []idleConn[C]
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	keep := p.idle[:0]
	for _, entry := range p.idle {
		if cutoff.IsZero() || entry.lastUsed.Before(cutoff) {
			expired = append(expired, entry)
		} else {
			keep = append(keep, entry)
		}
	}
	clear(p.idle[len(keep):])
	p.idle = keep
	p.mu.Unlock()
	for _, entry := range expired {
		entry.conn.Close()
		p.connsOpen.Dec()
		p.connsIdle.Dec()
	}
}

// Stats reports the pool's current shape: open counts checked-out plus
// idle connections, idle the subset sitting unused.
func (p *Pool[C]) Stats() (open, idle int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.slots) + len(p.idle), len(p.idle)
}

package session

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"infogram/internal/clock"
	"infogram/internal/telemetry"
)

// fakeConn is a pooled connection that records whether it was closed and
// whether it answers pings.
type fakeConn struct {
	id     int
	dead   bool
	closed atomic.Bool
}

func (c *fakeConn) Close() error {
	c.closed.Store(true)
	return nil
}

// fakePool pools fakeConns on a fake clock and counts dials and pings.
type fakePool struct {
	*Pool[*fakeConn]
	clk          *clock.Fake
	dials, pings atomic.Int64
}

func newFakePool(t *testing.T, opts PoolOptions) *fakePool {
	t.Helper()
	fp := &fakePool{clk: clock.NewFake(time.Unix(1000, 0))}
	opts.Clock = fp.clk
	dial := func(context.Context) (*fakeConn, error) {
		return &fakeConn{id: int(fp.dials.Add(1))}, nil
	}
	ping := func(_ context.Context, c *fakeConn) error {
		fp.pings.Add(1)
		if c.dead {
			return errors.New("dead")
		}
		return nil
	}
	fp.Pool = NewPool(dial, ping, opts)
	t.Cleanup(func() { fp.Close() })
	return fp
}

// TestPoolLeaseOrderAndHealthCheck: leases come back most recently used
// first; a lease idle past HealthCheckAfter is pinged, kept when it
// answers and replaced by a fresh dial when it does not.
func TestPoolLeaseOrderAndHealthCheck(t *testing.T) {
	p := newFakePool(t, PoolOptions{Size: 2})
	ctx := context.Background()
	a, _ := p.Checkout(ctx)
	b, _ := p.Checkout(ctx)
	p.Checkin(a)
	p.Checkin(b)
	if got, _ := p.Checkout(ctx); got != b {
		t.Fatalf("checkout returned conn %d, want the most recently used %d", got.id, b.id)
	}
	if p.pings.Load() != 0 {
		t.Fatal("a fresh idle connection was pinged")
	}
	p.Checkin(b)

	p.clk.Advance(2 * time.Second)
	if got, _ := p.Checkout(ctx); got != b || p.pings.Load() != 1 {
		t.Fatalf("aged live lease: got conn %d after %d pings, want %d after 1", got.id, p.pings.Load(), b.id)
	}
	p.Checkin(b)

	p.clk.Advance(2 * time.Second)
	b.dead, a.dead = true, true
	got, err := p.Checkout(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got == a || got == b || !a.closed.Load() || !b.closed.Load() || p.dials.Load() != 3 {
		t.Fatalf("dead idle leases: got conn %d, closed a=%v b=%v, %d dials; want a third dial and both closed",
			got.id, a.closed.Load(), b.closed.Load(), p.dials.Load())
	}
	if open, idle := p.Stats(); open != 1 || idle != 0 {
		t.Fatalf("Stats = %d open, %d idle; want 1, 0", open, idle)
	}
}

// TestPoolCloseClosesIdleAndLateLeases: Close closes idle connections, a
// lease returned afterwards is closed rather than pooled, and Checkout
// fails with ErrPoolClosed.
func TestPoolCloseClosesIdleAndLateLeases(t *testing.T) {
	p := newFakePool(t, PoolOptions{})
	ctx := context.Background()
	idle, _ := p.Checkout(ctx)
	late, _ := p.Checkout(ctx)
	p.Checkin(idle)
	p.Close()
	if !idle.closed.Load() {
		t.Fatal("Close left an idle connection open")
	}
	p.Checkin(late)
	if !late.closed.Load() {
		t.Fatal("a lease returned after Close was not closed")
	}
	if open, idle := p.Stats(); open != 0 || idle != 0 {
		t.Fatalf("Stats after Close = %d open, %d idle; want 0, 0", open, idle)
	}
	if _, err := p.Checkout(ctx); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Checkout after Close: %v, want ErrPoolClosed", err)
	}
}

// TestPoolCloseIdle: CloseIdle closes every idle connection, however
// young, and leaves leases alone; the next checkout dials fresh.
func TestPoolCloseIdle(t *testing.T) {
	p := newFakePool(t, PoolOptions{})
	ctx := context.Background()
	a, _ := p.Checkout(ctx)
	b, _ := p.Checkout(ctx)
	leased, _ := p.Checkout(ctx)
	p.Checkin(a)
	p.Checkin(b)
	p.CloseIdle()
	if !a.closed.Load() || !b.closed.Load() || leased.closed.Load() {
		t.Fatalf("closed a=%v b=%v leased=%v; want the idle two closed, the lease open",
			a.closed.Load(), b.closed.Load(), leased.closed.Load())
	}
	if open, idle := p.Stats(); open != 1 || idle != 0 {
		t.Fatalf("Stats after CloseIdle = %d open, %d idle; want 1, 0", open, idle)
	}
	if got, _ := p.Checkout(ctx); got == a || got == b || p.dials.Load() != 4 {
		t.Fatalf("checkout after CloseIdle: conn %d after %d dials; want a fourth dial", got.id, p.dials.Load())
	}
}

// TestPoolWarmLeaseAllocationFree pins a warm lease — Checkout of an idle
// connection and its Checkin, instruments on — at zero allocations: idle
// entries are held by value.
func TestPoolWarmLeaseAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := newFakePool(t, PoolOptions{Telemetry: telemetry.NewRegistry()})
	ctx := context.Background()
	c, err := p.Checkout(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p.Checkin(c)
	allocs := testing.AllocsPerRun(1000, func() {
		c, err := p.Checkout(ctx)
		if err != nil {
			t.Fatal(err)
		}
		p.Checkin(c)
	})
	if allocs != 0 {
		t.Fatalf("warm Checkout+Checkin allocates %.1f times, want 0", allocs)
	}
	if p.dials.Load() != 1 {
		t.Fatalf("%d dials, want 1: the warm lease was not reused", p.dials.Load())
	}
}

package core_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"infogram/internal/core"
	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/provider"
	"infogram/internal/scheduler"
	"infogram/internal/session"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
)

// waitGoroutines polls until the goroutine count drops back near the
// baseline, failing on a leak.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d live, baseline %d", runtime.NumGoroutine(), baseline)
}

func memoryRegistry() *provider.Registry {
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "Memory",
		Values:      provider.Attributes{{Name: "total", Value: "1024"}},
	}, provider.RegisterOptions{TTL: time.Second})
	return reg
}

// Soak the pool lifecycle: concurrent checkouts, checkins, discards, and a
// Close landing mid-traffic, with a goroutine-leak check at the end (run
// under -race).
func TestPoolSoakConcurrentLifecycle(t *testing.T) {
	g := newTestGrid(t, memoryRegistry())
	baseline := runtime.NumGoroutine()

	tel := telemetry.NewRegistry()
	pool := core.NewPool(g.addr, g.user, g.trust, core.PoolOptions{
		Size:        3,
		IdleTimeout: 50 * time.Millisecond, // exercise the reaper during the soak
		Client:      core.Options{Telemetry: tel},
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const workers = 12
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				cl, err := pool.Checkout(ctx)
				if errors.Is(err, core.ErrPoolClosed) {
					return
				}
				if err != nil {
					errCh <- err
					return
				}
				if err := cl.Ping(); err != nil {
					pool.Discard(cl)
					errCh <- err
					return
				}
				if (w+i)%7 == 0 {
					pool.Discard(cl) // force periodic re-dials
				} else {
					pool.Checkin(cl)
				}
			}
		}(w)
	}

	time.Sleep(300 * time.Millisecond) // let the soak run, reaper included
	pool.Close()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if _, err := pool.Checkout(ctx); !errors.Is(err, core.ErrPoolClosed) {
		t.Fatalf("Checkout after Close: err = %v; want ErrPoolClosed", err)
	}
	if open, idle := pool.Stats(); open != 0 || idle != 0 {
		t.Fatalf("pool not drained after Close: open=%d idle=%d", open, idle)
	}
	waitGoroutines(t, baseline)
}

// A server restart must be absorbed transparently: the checkout-time health
// check evicts the dead connections and dials fresh against the new
// process, without surfacing an error to the pool's caller.
func TestPoolSurvivesServerRestart(t *testing.T) {
	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=Test CA", time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	svcCred, err := ca.IssueIdentity("/O=Grid/CN=service", time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	user, err := ca.IssueIdentity("/O=Grid/CN=alice", time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	gm := gsi.NewGridmap()
	gm.Add("/O=Grid/CN=alice", "alice")

	newService := func() *core.Service {
		return core.NewService(core.Config{
			ResourceName: "restart.resource",
			Credential:   svcCred,
			Trust:        trust,
			Gridmap:      gm,
			Registry:     memoryRegistry(),
			Backends:     gram.Backends{Exec: &scheduler.Fork{}},
		})
	}
	svc := newService()
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	pool := core.NewPool(addr, user, trust, core.PoolOptions{
		Size:             2,
		HealthCheckAfter: time.Millisecond, // ping-check any conn idle > 1ms
	})
	defer pool.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := pool.Ping(ctx); err != nil {
		t.Fatalf("ping before restart: %v", err)
	}
	if open, _ := pool.Stats(); open != 1 {
		t.Fatalf("open connections before restart = %d, want 1", open)
	}

	// Kill the server and bring a new process up on the same address; the
	// port may linger briefly, so rebinding retries.
	svc.Close()
	svc2 := newService()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err = svc2.Listen(addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer svc2.Close()
	time.Sleep(5 * time.Millisecond) // push the idle conn past HealthCheckAfter

	// The pooled connection is now dead. The checkout health check must
	// notice, evict it, and hand out a fresh authenticated connection.
	if err := pool.Ping(ctx); err != nil {
		t.Fatalf("ping after restart: %v", err)
	}
	res, err := pool.QueryRaw(ctx, "&(info=Memory)")
	if err != nil {
		t.Fatalf("query after restart: %v", err)
	}
	if len(res.Entries) == 0 {
		t.Fatal("empty query result after restart")
	}
	if open, _ := pool.Stats(); open != 1 {
		t.Fatalf("open connections after restart = %d, want 1 (dead conn not evicted)", open)
	}
}

// A member that goes silent without a reset (a partition) must not hold a
// checkout past its context: the health-check ping of an idle connection
// runs under the caller's context, and so does the dial that replaces it.
func TestPoolCheckoutHonoursContextOnSilentMember(t *testing.T) {
	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=Test CA", time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	svcCred, _ := ca.IssueIdentity("/O=Grid/CN=service", time.Hour, now)
	user, _ := ca.IssueIdentity("/O=Grid/CN=alice", time.Hour, now)
	baseline := runtime.NumGoroutine()

	release := make(chan struct{})
	srv := session.NewServer(session.Config{
		Credential: svcCred,
		Trust:      trust,
		ErrorVerb:  gram.VerbError,
		Handler: func(context.Context, *session.Peer, wire.Frame) wire.Frame {
			<-release // never answers while the test runs
			return wire.Frame{Verb: gram.VerbPong}
		},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := core.NewPool(addr, user, trust, core.PoolOptions{Size: 1, HealthCheckAfter: time.Nanosecond})

	cl, err := pool.Checkout(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pool.Checkin(cl)
	time.Sleep(time.Millisecond) // idle past HealthCheckAfter

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		cl, err := pool.Checkout(ctx)
		if err == nil {
			pool.Checkin(cl)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Checkout = %v, want context.DeadlineExceeded", err)
		}
		close(release)
	case <-time.After(time.Second):
		t.Error("Checkout still blocked 1s after a 200ms context")
		close(release)
		<-done
	}
	if open, _ := pool.Stats(); open != 0 {
		t.Errorf("open connections after the expired checkout = %d, want 0 (slot not freed)", open)
	}
	pool.Close()
	srv.Close()
	waitGoroutines(t, baseline)
}

// TestNewClientSharesOneDialAndCloseIsFinal: a client from NewClient dials
// nothing until its first request, concurrent first requests share one
// dial, and a request after Close fails instead of re-dialing.
func TestNewClientSharesOneDialAndCloseIsFinal(t *testing.T) {
	g := newTestGrid(t, memoryRegistry())
	cl := core.NewClient(g.addr, g.user, g.trust, core.Options{})
	if n := g.svc.AcceptedConns(); n != 0 {
		t.Fatalf("NewClient dialed: %d connections accepted", n)
	}
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = cl.PingContext(context.Background())
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	if n := g.svc.AcceptedConns(); n != 1 {
		t.Fatalf("%d concurrent first requests opened %d connections, want 1", len(errs), n)
	}
	cl.Close()
	if err := cl.Ping(); err == nil {
		t.Fatal("a request after Close succeeded")
	}
	if n := g.svc.AcceptedConns(); n != 1 {
		t.Fatalf("the closed client re-dialed: %d connections accepted", n)
	}
}

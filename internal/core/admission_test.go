package core_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"infogram/internal/core"
	"infogram/internal/gsi"
	"infogram/internal/provider"
	"infogram/internal/scheduler"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
)

// rejectedTotal reads the admission rejection counter for one scope.
func rejectedTotal(svc *core.Service, scope string) int64 {
	return svc.Telemetry().Counter("infogram_admission_rejected_total", "",
		telemetry.Label{Key: "scope", Value: scope}).Value()
}

func TestQuotaRejectsWithRetryAfterAndKeepsConnection(t *testing.T) {
	quota, err := gsi.ParseContractsString(`allow * for "/O=Grid/CN=alice" rate=0.001 burst=2`)
	if err != nil {
		t.Fatalf("quota: %v", err)
	}
	g := newTestGridConfig(t, provider.NewRegistry(nil), nil, func(cfg *core.Config) {
		cfg.Quota = quota
	})
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The fresh bucket holds its burst of 2; the third request drains it.
	for i := 0; i < 2; i++ {
		if err := cl.Ping(); err != nil {
			t.Fatalf("ping %d inside burst: %v", i, err)
		}
	}
	var rej *core.RejectedError
	err = cl.Ping()
	if !errors.As(err, &rej) {
		t.Fatalf("want RejectedError, got %v", err)
	}
	if rej.Scope != wire.RejectScopeQuota {
		t.Fatalf("scope = %q, want quota", rej.Scope)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("retry-after hint missing: %+v", rej)
	}

	// A rejection is a protocol answer, not a transport failure: the
	// client must keep the authenticated connection instead of burning a
	// fresh GSI handshake per refusal.
	if err := cl.Ping(); !errors.As(err, &rej) {
		t.Fatalf("second rejection: %v", err)
	}
	if got := g.svc.AcceptedConns(); got != 1 {
		t.Fatalf("rejections cost %d connections, want the original 1", got)
	}
	if got := rejectedTotal(g.svc, wire.RejectScopeQuota); got != 2 {
		t.Fatalf("rejected_total{scope=quota} = %d, want 2", got)
	}
}

func TestQuotaBucketRefills(t *testing.T) {
	quota, err := gsi.ParseContractsString(`allow * rate=50 burst=1`)
	if err != nil {
		t.Fatalf("quota: %v", err)
	}
	g := newTestGridConfig(t, provider.NewRegistry(nil), nil, func(cfg *core.Config) {
		cfg.Quota = quota
	})
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(); err != nil {
		t.Fatalf("first ping: %v", err)
	}
	var rej *core.RejectedError
	if err := cl.Ping(); !errors.As(err, &rej) {
		t.Fatalf("drained bucket should reject, got %v", err)
	}
	// 50 tokens/s: the hinted wait (~20ms) refills one.
	time.Sleep(rej.RetryAfter + 50*time.Millisecond)
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping after refill: %v", err)
	}
}

func TestMaxInflightShedsUnderOverload(t *testing.T) {
	reg := provider.NewRegistry(nil)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	reg.Register(provider.NewFuncProvider("Slow", func(ctx context.Context) (provider.Attributes, error) {
		once.Do(func() { close(entered) })
		select {
		case <-release:
		case <-ctx.Done():
		}
		return provider.Attributes{{Name: "v", Value: "1"}}, nil
	}), provider.RegisterOptions{})
	g := newTestGridConfig(t, reg, nil, func(cfg *core.Config) {
		cfg.MaxInflight = 1
		cfg.ShedQueue = 1
		cfg.QueueTimeout = 2 * time.Second
	})
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	query := func(errs chan<- error) {
		_, err := cl.QueryRaw("&(info=Slow)(response=immediate)")
		errs <- err
	}
	errs := make(chan error, 2)
	// First query occupies the single inflight slot...
	go query(errs)
	<-entered
	// ...the second parks in the wait queue (occupancy 1). Wait for the
	// gauge to show it parked: probing before then races the probe into
	// the queue slot, where it times out and the "parked" query sheds.
	go query(errs)
	waiting := g.svc.Telemetry().Gauge("infogram_admission_waiting", "")
	parkDeadline := time.Now().Add(5 * time.Second)
	for waiting.Value() == 0 {
		if time.Now().After(parkDeadline) {
			t.Fatal("second query never parked in the wait queue")
		}
		time.Sleep(time.Millisecond)
	}
	// ...so the third must shed: normal priority's threshold on a
	// 1-deep queue is 1, already reached.
	deadline := time.Now().Add(5 * time.Second)
	var rej *core.RejectedError
	for {
		_, err := cl.QueryRaw("&(info=Slow)(response=immediate)")
		if errors.As(err, &rej) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("overloaded server never shed; last err: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rej.Scope != wire.RejectScopeOverload {
		t.Fatalf("scope = %q, want overload", rej.Scope)
	}
	if rejectedTotal(g.svc, wire.RejectScopeOverload) == 0 {
		t.Fatal("rejected_total{scope=overload} not incremented")
	}

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("parked query %d should complete after release: %v", i, err)
		}
	}
}

func TestSubmitBacklogRejects(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{}, 2) // one per job that reaches the slot
	fn := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
	fn.RegisterFunc("block", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return "", nil
	})
	queue := scheduler.NewQueue(scheduler.QueueConfig{Name: "pbs", Slots: 1, Executor: fn})
	t.Cleanup(queue.Close)
	g := newTestGridConfig(t, provider.NewRegistry(nil), nil, func(cfg *core.Config) {
		cfg.Backends.Queue = queue
		cfg.SubmitBacklog = 1
	})
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const job = "&(executable=block)(jobtype=queue)"
	// Job 1 occupies the slot, job 2 the backlog. Job 2 is submitted only
	// once job 1 runs: while job 1 still waits in the queue it is the
	// backlog, and job 2 would be refused.
	if _, err := cl.Submit(job); err != nil {
		t.Fatalf("submit 0: %v", err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job 1 never reached the slot")
	}
	if _, err := cl.Submit(job); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	// Backend submission is asynchronous (the manager goroutine selects
	// the backend); wait for the backlog to be observable.
	deadline := time.Now().Add(5 * time.Second)
	for queue.Depth() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth = %d, want 1", queue.Depth())
		}
		time.Sleep(time.Millisecond)
	}

	_, err = cl.Submit(job)
	var rej *core.RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("want RejectedError, got %v", err)
	}
	if rej.Scope != wire.RejectScopeBacklog {
		t.Fatalf("scope = %q, want backlog", rej.Scope)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("retry-after hint missing: %+v", rej)
	}
	if rejectedTotal(g.svc, wire.RejectScopeBacklog) != 1 {
		t.Fatalf("rejected_total{scope=backlog} = %d, want 1", rejectedTotal(g.svc, wire.RejectScopeBacklog))
	}
	// The refused job must not have been registered: only 2 jobs exist.
	if n := g.svc.Table().Len(); n != 2 {
		t.Fatalf("job table holds %d records, want 2 (the rejected submit must not register)", n)
	}
}

func TestDegradedReplyChargedExactlyOneToken(t *testing.T) {
	// A quota-limited identity whose info query degrades (one provider
	// times out) must be charged exactly one token: the partial reply is
	// one answer to one admitted request, not a failure the client or
	// server retries into a second charge.
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "Good",
		Values:      provider.Attributes{{Name: "v", Value: "1"}},
	}, provider.RegisterOptions{TTL: time.Hour})
	reg.Register(provider.NewFuncProvider("Bad", func(ctx context.Context) (provider.Attributes, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}), provider.RegisterOptions{})
	quota, err := gsi.ParseContractsString(`allow * for "/O=Grid/CN=alice" rate=0.001 burst=2`)
	if err != nil {
		t.Fatalf("quota: %v", err)
	}
	g := newTestGridConfig(t, reg, nil, func(cfg *core.Config) {
		cfg.Quota = quota
		cfg.ProviderTimeout = 50 * time.Millisecond
	})
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	res, err := cl.QueryRaw("&(info=Good)(info=Bad)")
	if err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	if !res.Degraded {
		t.Fatal("query should be degraded (Bad timed out)")
	}
	// One token remains: a second request is still admitted, proving the
	// degraded reply did not double-spend.
	if _, err := cl.QueryRaw("&(info=Good)"); err != nil {
		t.Fatalf("second query should spend the remaining token: %v", err)
	}
	var rej *core.RejectedError
	if _, err := cl.QueryRaw("&(info=Good)"); !errors.As(err, &rej) {
		t.Fatalf("third query should exhaust the bucket, got %v", err)
	}
	if rej.Scope != wire.RejectScopeQuota {
		t.Fatalf("scope = %q, want quota", rej.Scope)
	}
}

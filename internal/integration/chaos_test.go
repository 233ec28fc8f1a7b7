// Chaos suite: every failpoint in internal/faultinject exercised through a
// full client→service round trip, verifying the degradation paths the
// ROADMAP's MDS performance studies motivate — retries absorb transport
// faults, deadlines cut off wedged peers, and provider failures degrade
// queries instead of sinking them.
package integration_test

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"infogram/internal/cluster"
	"infogram/internal/core"
	"infogram/internal/faultinject"
	"infogram/internal/gram"
	"infogram/internal/job"
	"infogram/internal/mds"
	"infogram/internal/provider"
	"infogram/internal/scheduler"
	"infogram/internal/session"
	"infogram/internal/telemetry"
)

// chaosRetry keeps chaos tests fast: near-instant backoff, a few attempts.
var chaosRetry = core.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}

// startInfoGram starts an InfoGram service for one chaos scenario and
// returns its address plus the telemetry registry to assert against.
func startInfoGram(t *testing.T, d *deployment, mutate func(*core.Config)) (string, *telemetry.Registry) {
	t.Helper()
	tel := telemetry.NewRegistry()
	cfg := core.Config{
		ResourceName: "chaos-site",
		Credential:   d.svcCred, Trust: d.trust, Gridmap: d.gridmap,
		Registry:  d.reg,
		Backends:  d.backends(),
		Telemetry: tel,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	svc := core.NewService(cfg)
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return addr, tel
}

func contextWithTimeout(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 10*time.Second)
}

func retryClient(t *testing.T, addr string, d *deployment) (*core.Client, *telemetry.Counter) {
	t.Helper()
	ctel := telemetry.NewRegistry()
	retries := ctel.Counter("infogram_client_retries_total",
		"transparent client retries after transient connect, handshake, or wire failures")
	cl, err := core.DialWithOptions(addr, d.user, d.trust, core.Options{
		Retry:          chaosRetry,
		RequestTimeout: 2 * time.Second,
		Telemetry:      ctel,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, retries
}

// wire.read=error*1 — the fault lands on whichever side reads next (both
// sides of an in-process round trip share the failpoint); either way the
// exchange fails as a transient transport error and the retry policy
// recovers it.
func TestChaosWireReadErrorRetried(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	d := newDeployment(t)
	addr, _ := startInfoGram(t, d, nil)
	cl, retries := retryClient(t, addr, d)

	before := faultinject.Triggered(faultinject.WireRead)
	faultinject.Arm(faultinject.WireRead, faultinject.Action{Err: errors.New("read cable cut"), Count: 1})
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping did not survive one injected read fault: %v", err)
	}
	if got := faultinject.Triggered(faultinject.WireRead) - before; got != 1 {
		t.Fatalf("wire.read fired %d times; want 1", got)
	}
	if retries.Value() == 0 {
		t.Fatal("recovery happened without a counted retry")
	}
}

// wire.write=error*1 — the client's own write of the request fails; the
// connection is torn down and the request replayed on a fresh one.
func TestChaosWireWriteErrorRetried(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	d := newDeployment(t)
	addr, _ := startInfoGram(t, d, nil)
	cl, retries := retryClient(t, addr, d)

	faultinject.Arm(faultinject.WireWrite, faultinject.Action{Err: errors.New("write cable cut"), Count: 1})
	res, err := cl.QueryRaw("&(info=CPULoad)")
	if err != nil {
		t.Fatalf("query did not survive one injected write fault: %v", err)
	}
	if v, _ := res.Entries[0].Get("CPULoad:load1"); v != "2" {
		t.Fatalf("post-retry reply corrupted: %v", res.Entries)
	}
	if retries.Value() == 0 {
		t.Fatal("recovery happened without a counted retry")
	}
}

// wire.read=drop*1 against a client WITHOUT retries: the reply frame is
// discarded and the bounded call reports a deadline error instead of
// hanging forever.
func TestChaosWireDropTimesOutWithoutRetry(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	d := newDeployment(t)
	addr, _ := startInfoGram(t, d, nil)
	cl, err := core.DialWithOptions(addr, d.user, d.trust, core.Options{
		RequestTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	faultinject.Arm(faultinject.WireRead, faultinject.Action{Drop: true, Count: 1})
	start := time.Now()
	if err := cl.Ping(); err == nil {
		t.Fatal("Ping succeeded although its reply was dropped")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dropped reply stalled the client for %v", elapsed)
	}
}

// wire.mux=drop*1 — one mux'd response is discarded inside the client
// demultiplexer while three sibling requests are in flight on the same
// authenticated connection. Exactly the poisoned call times out; the
// siblings complete, the connection survives (no re-handshake), and a
// follow-up request reuses it.
func TestChaosMuxDropFailsOneCallAlone(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	d := newDeployment(t)
	addr, tel := startInfoGram(t, d, nil)
	// No retry policy: a retried call would mask whether the fault stayed
	// contained to one request.
	cl, err := core.DialWithOptions(addr, d.user, d.trust, core.Options{
		RequestTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Warm up before arming so the drop lands on one of the concurrent
	// calls, then record the handshake count to prove the connection is
	// never replaced.
	if _, err := cl.QueryRaw("&(info=CPULoad)"); err != nil {
		t.Fatalf("warm-up query: %v", err)
	}
	authOK := tel.Counter("infogram_auth_total", "GSI handshake outcomes",
		telemetry.Label{Key: "outcome", Value: "ok"})
	handshakes := authOK.Value()

	before := faultinject.Triggered(faultinject.WireMux)
	faultinject.Arm(faultinject.WireMux, faultinject.Action{Drop: true, Count: 1})

	const calls = 4
	errs := make([]error, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cl.QueryRaw("&(info=CPULoad)")
		}(i)
	}
	wg.Wait()

	failed := 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		failed++
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("call %d failed with %v; want its own deadline, not a transport error", i, err)
		}
	}
	if failed != 1 {
		t.Fatalf("%d of %d concurrent calls failed; the dropped response must fail exactly one", failed, calls)
	}
	if got := faultinject.Triggered(faultinject.WireMux) - before; got != 1 {
		t.Fatalf("wire.mux fired %d times; want 1", got)
	}

	// The surviving connection keeps serving: no reconnect, no handshake.
	if _, err := cl.QueryRaw("&(info=CPULoad)"); err != nil {
		t.Fatalf("follow-up query on the surviving connection: %v", err)
	}
	if got := authOK.Value(); got != handshakes {
		t.Fatalf("handshakes went %d -> %d; the poisoned call tore down the shared connection", handshakes, got)
	}
}

// gsi.handshake=error*1 — connection establishment itself retries: the
// first handshake dies, the second connects the client.
func TestChaosHandshakeFaultRetriedOnDial(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	d := newDeployment(t)
	addr, _ := startInfoGram(t, d, nil)

	faultinject.Arm(faultinject.GSIHandshake, faultinject.Action{Err: errors.New("handshake torn"), Count: 1})
	before := faultinject.Triggered(faultinject.GSIHandshake)
	cl, retries := retryClient(t, addr, d)
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping after retried dial: %v", err)
	}
	if faultinject.Triggered(faultinject.GSIHandshake) == before {
		t.Fatal("handshake failpoint never fired")
	}
	if retries.Value() == 0 {
		t.Fatal("dial recovered without a counted retry")
	}
}

// provider.collect=hang*1 with -provider-timeout: the acceptance scenario.
// A query spanning two keywords, one of whose providers hangs past the
// per-provider deadline, returns a degraded PARTIAL reply — not an error,
// not a hang — and bumps infogram_requests_degraded_total.
func TestChaosProviderHangDegradesQuery(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	d := newDeployment(t)
	d.reg.Register(&provider.StaticProvider{
		KeywordName: "Memory",
		Values:      provider.Attributes{{Name: "free", Value: "512"}},
	}, provider.RegisterOptions{TTL: time.Minute})
	addr, tel := startInfoGram(t, d, func(cfg *core.Config) {
		cfg.ProviderTimeout = 100 * time.Millisecond
	})
	cl, _ := retryClient(t, addr, d)

	faultinject.Arm(faultinject.ProviderCollect, faultinject.Action{Hang: true, Count: 1})
	start := time.Now()
	res, err := cl.QueryRaw("&(info=CPULoad)(info=Memory)")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("degraded query returned an error instead of a partial reply: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("query took %v; the provider timeout did not bound the hang", elapsed)
	}
	if !res.Degraded {
		t.Fatalf("reply not marked degraded:\n%s", res.Raw)
	}
	// One keyword made it through, and the status entry names the other.
	var gotData, gotStatus bool
	for _, e := range res.Entries {
		if v, ok := e.Get("CPULoad:load1"); ok && v == "2" {
			gotData = true
		}
		if v, ok := e.Get("Memory:free"); ok && v == "512" {
			gotData = true
		}
		if oc, _ := e.Get("objectclass"); oc == core.DegradedObjectClass {
			gotStatus = true
			if _, ok := e.Get("missing"); !ok {
				t.Errorf("degraded status entry lists no missing keyword: %v", e)
			}
		}
	}
	if !gotData {
		t.Fatalf("no surviving keyword data in degraded reply:\n%s", res.Raw)
	}
	if !gotStatus {
		t.Fatalf("no degraded status entry in reply:\n%s", res.Raw)
	}
	degraded := tel.Counter("infogram_requests_degraded_total",
		"information replies answered partially because a provider failed or timed out")
	if degraded.Value() != 1 {
		t.Fatalf("infogram_requests_degraded_total = %d; want 1", degraded.Value())
	}
}

// provider.collect=error*1 armed while the registry fans out over eight
// keywords in parallel: exactly one keyword degrades, the other seven
// arrive intact, and the reply's status entry names the lost keyword.
func TestChaosProviderErrorDuringParallelFanout(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	d := newDeployment(t)
	keywords := []string{"CPULoad"}
	for _, kw := range []string{"Extra0", "Extra1", "Extra2", "Extra3", "Extra4", "Extra5", "Extra6"} {
		d.reg.Register(&provider.StaticProvider{
			KeywordName: kw,
			Values:      provider.Attributes{{Name: "v", Value: "1"}},
		}, provider.RegisterOptions{TTL: 0})
		keywords = append(keywords, kw)
	}
	addr, tel := startInfoGram(t, d, func(cfg *core.Config) {
		cfg.ProviderTimeout = time.Second
	})
	cl, _ := retryClient(t, addr, d)

	var filter strings.Builder
	filter.WriteByte('&')
	for _, kw := range keywords {
		filter.WriteString("(info=" + kw + ")")
	}
	before := faultinject.Triggered(faultinject.ProviderCollect)
	faultinject.Arm(faultinject.ProviderCollect, faultinject.Action{Err: errors.New("fanout casualty"), Count: 1})
	res, err := cl.QueryRaw(filter.String())
	if err != nil {
		t.Fatalf("degraded query returned an error instead of a partial reply: %v", err)
	}
	if got := faultinject.Triggered(faultinject.ProviderCollect) - before; got != 1 {
		t.Fatalf("provider.collect fired %d times; want 1", got)
	}
	if !res.Degraded {
		t.Fatalf("reply not marked degraded:\n%s", res.Raw)
	}
	// Exactly one keyword is missing; the other seven answered.
	var missing, answered int
	for _, e := range res.Entries {
		if oc, _ := e.Get("objectclass"); oc == core.DegradedObjectClass {
			for _, a := range e.Attrs {
				if a.Name == "missing" {
					missing++
				}
			}
			continue
		}
		for _, kw := range keywords {
			if _, ok := e.Get(kw + ":load1"); ok {
				answered++
			} else if _, ok := e.Get(kw + ":v"); ok {
				answered++
			}
		}
	}
	if missing != 1 {
		t.Fatalf("degraded status lists %d missing keywords; want exactly 1:\n%s", missing, res.Raw)
	}
	if answered != len(keywords)-1 {
		t.Fatalf("%d keywords answered; want %d:\n%s", answered, len(keywords)-1, res.Raw)
	}
	degraded := tel.Counter("infogram_requests_degraded_total",
		"information replies answered partially because a provider failed or timed out")
	if degraded.Value() != 1 {
		t.Fatalf("infogram_requests_degraded_total = %d; want 1", degraded.Value())
	}
}

// gram.spawn=error*1 — a submission the server refuses is a protocol
// answer, not a transport fault: the client reports it and must NOT retry,
// because replaying could run the job twice.
func TestChaosGramSpawnErrorNotRetried(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	d := newDeployment(t)
	addr, _ := startInfoGram(t, d, nil)
	cl, retries := retryClient(t, addr, d)

	faultinject.Arm(faultinject.GramSpawn, faultinject.Action{Err: errors.New("spawn refused"), Count: 1})
	_, err := cl.Submit("&(executable=noop)(jobtype=func)")
	if err == nil {
		t.Fatal("Submit succeeded despite the armed spawn fault")
	}
	if !strings.Contains(err.Error(), "injected") {
		t.Fatalf("error does not surface the injected fault: %v", err)
	}
	if retries.Value() != 0 {
		t.Fatalf("submission was retried %d times; submissions must never retry", retries.Value())
	}
	// The fault consumed its count: the same client can now submit.
	contact, err := cl.Submit("&(executable=noop)(jobtype=func)")
	if err != nil {
		t.Fatalf("submit after fault: %v", err)
	}
	ctx, cancel := contextWithTimeout(t)
	defer cancel()
	if st, err := cl.WaitTerminal(ctx, contact, 5*time.Millisecond); err != nil || st.State != job.Done {
		t.Fatalf("job after fault: %+v %v", st, err)
	}
}

// scheduler.dispatch=error*1 — the fault fires after the submission is
// accepted, inside the batch queue: the job lands in Failed with the
// injected message, observable through the normal status protocol.
func TestChaosSchedulerDispatchFailsJob(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	d := newDeployment(t)
	addr, _ := startInfoGram(t, d, func(cfg *core.Config) {
		fn := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
		fn.RegisterFunc("noop", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
			return "done", nil
		})
		q := scheduler.NewQueue(scheduler.QueueConfig{Name: "chaos", Slots: 1, Executor: fn})
		t.Cleanup(q.Close)
		cfg.Backends.Queue = q
	})
	cl, _ := retryClient(t, addr, d)

	faultinject.Arm(faultinject.SchedulerDispatch, faultinject.Action{Err: errors.New("node offline"), Count: 1})
	contact, err := cl.Submit("&(executable=noop)(jobtype=queue)")
	if err != nil {
		t.Fatalf("queued submission should be accepted before dispatch: %v", err)
	}
	ctx, cancel := contextWithTimeout(t)
	defer cancel()
	st, err := cl.WaitTerminal(ctx, contact, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != job.Failed {
		t.Fatalf("state = %v; want Failed", st.State)
	}
	if !strings.Contains(st.Error, "injected") {
		t.Fatalf("job error does not surface the injected fault: %q", st.Error)
	}
}

// slowClientBound is the cut-off the slow-client table runs under: the
// request timeout on the rows whose server has one, the session's
// handshake timeout (shortened through its test hook) on the rest.
const slowClientBound = 150 * time.Millisecond

// A client that connects and then says nothing, or feeds bytes too slowly,
// is cut off by every server — the session layer bounds the handshake for
// all five — and the connection's goroutine exits: no leak, no unbounded
// stall.
func TestChaosSlowClientCutOff(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	defer session.SetHandshakeTimeout(slowClientBound)()
	d := newDeployment(t)

	servers := []struct {
		name string
		// start returns the address and, where the server exports one, its
		// wire frame-error counter.
		start func(t *testing.T) (string, *telemetry.Counter)
	}{
		{"core", func(t *testing.T) (string, *telemetry.Counter) {
			addr, tel := startInfoGram(t, d, func(cfg *core.Config) { cfg.RequestTimeout = slowClientBound })
			return addr, tel.Counter("infogram_wire_frame_errors_total", "malformed or oversized protocol frames")
		}},
		{"gram", func(t *testing.T) (string, *telemetry.Counter) {
			svc := gram.NewService(gram.Config{
				Credential: d.svcCred, Trust: d.trust, Gridmap: d.gridmap, Backends: d.backends(),
			})
			t.Cleanup(func() { svc.Close() })
			return listen(t, svc.Listen), nil
		}},
		{"gris", func(t *testing.T) (string, *telemetry.Counter) {
			gris := mds.NewGRIS(mds.GRISConfig{ResourceName: "site", Registry: d.reg, Credential: d.svcCred, Trust: d.trust})
			t.Cleanup(func() { gris.Close() })
			return listen(t, gris.Listen), nil
		}},
		{"giis", func(t *testing.T) (string, *telemetry.Counter) {
			giis := mds.NewGIIS(mds.GIISConfig{OrgName: "vo", Credential: d.svcCred, Trust: d.trust})
			t.Cleanup(func() { giis.Close() })
			return listen(t, giis.Listen), nil
		}},
		{"proxy", func(t *testing.T) (string, *telemetry.Counter) {
			member, _ := startInfoGram(t, d, nil)
			router, err := cluster.NewRouter(cluster.RouterConfig{Members: []string{member}, Cred: d.user, Trust: d.trust})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { router.Close() })
			proxy := cluster.NewProxy(cluster.ProxyConfig{Credential: d.svcCred, Trust: d.trust, Router: router})
			t.Cleanup(func() { proxy.Close() })
			return listen(t, proxy.Listen), nil
		}},
	}
	for _, srv := range servers {
		for _, drip := range []bool{false, true} {
			name := srv.name + "/silent"
			if drip {
				name = srv.name + "/drip"
			}
			t.Run(name, func(t *testing.T) {
				addr, frameErrs := srv.start(t)
				baseline := runtime.NumGoroutine()
				raw, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				defer raw.Close()
				dripped := make(chan struct{})
				go func() {
					defer close(dripped)
					// One byte every 50ms: the frame never completes
					// within the server's deadline.
					for drip {
						if _, err := raw.Write([]byte("A")); err != nil {
							return // the server closed the connection
						}
						time.Sleep(50 * time.Millisecond)
					}
				}()
				// The server closes the connection inside the bound (plus
				// scheduling slack): the read ends with EOF or a reset,
				// not with this side's own deadline.
				_ = raw.SetReadDeadline(time.Now().Add(slowClientBound + 2*time.Second))
				_, err = io.Copy(io.Discard, raw)
				if errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("connection still open %s after connecting", slowClientBound+2*time.Second)
				}
				<-dripped
				raw.Close()
				if frameErrs != nil && frameErrs.Value() == 0 {
					t.Error("server never counted the stalled frame as a frame error")
				}
				// The connection's goroutine must be gone: poll until the
				// count returns to the pre-connection baseline, with slack
				// for unrelated runtime goroutines.
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > baseline+1 {
					if time.Now().After(deadline) {
						t.Fatalf("goroutines: baseline %d, now %d — connection goroutine leaked", baseline, runtime.NumGoroutine())
					}
					time.Sleep(10 * time.Millisecond)
				}
			})
		}
	}
}

// listen binds a server to an ephemeral loopback port.
func listen(t *testing.T, listen func(string) (string, error)) string {
	t.Helper()
	addr, err := listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// Distributed-tracing suite: wire-propagated trace context across a full
// deployment. A client-minted trace ID rides a pooled connection into the
// service, the server joins it, and the resulting span tree — handshake,
// dispatch, per-provider collection, scheduler run, journal appends — is
// queryable back out through the selftrace information provider, like any
// other piece of resource information (the paper's unification thesis
// applied to the service's own internals).
package integration_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"infogram/internal/core"
	"infogram/internal/faultinject"
	"infogram/internal/gram"
	"infogram/internal/journal"
	"infogram/internal/ldif"
	"infogram/internal/provider"
	"infogram/internal/session"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
)

// startTracedInfoGram starts an InfoGram service with a write-ahead
// journal (FsyncAlways, so every submit appends and syncs in-request) and
// returns its address plus the service handle for tracer access.
func startTracedInfoGram(t *testing.T, d *deployment) (string, *core.Service) {
	t.Helper()
	jnl, _, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	svc := core.NewService(core.Config{
		ResourceName: "trace-site",
		Credential:   d.svcCred, Trust: d.trust, Gridmap: d.gridmap,
		Registry:  d.reg,
		Backends:  d.backends(),
		Journal:   jnl,
		Telemetry: telemetry.NewRegistry(),
	})
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return addr, svc
}

// spanNames collects the distinct span names of a stored trace.
func spanNames(rec telemetry.TraceRecord) map[string]int {
	names := map[string]int{}
	for _, s := range rec.Spans {
		names[s.Name]++
	}
	return names
}

// waitForSpans polls the service's trace store until the trace contains
// every wanted span name (late spans from async job work land after the
// submit acks).
func waitForSpans(t *testing.T, svc *core.Service, trace telemetry.TraceID, wanted ...string) telemetry.TraceRecord {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec, ok := svc.Tracer().Store().Get(trace)
		if ok {
			names := spanNames(rec)
			missing := ""
			for _, w := range wanted {
				if names[w] == 0 {
					missing = w
					break
				}
			}
			if missing == "" {
				return rec
			}
			if time.Now().After(deadline) {
				t.Fatalf("trace %s never grew span %q; has %v", trace, missing, names)
			}
		} else if time.Now().After(deadline) {
			t.Fatalf("trace %s never stored", trace)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The acceptance path: one query and one job submit through a pool, both
// under a client-minted trace ID, produce a single coherent span tree —
// handshake, dispatch, provider collection, scheduler run, and journal
// appends — and the tree is readable back through info=selftrace.
func TestEndToEndTraceTree(t *testing.T) {
	d := newDeployment(t)
	addr, svc := startTracedInfoGram(t, d)
	pool := core.NewPool(addr, d.user, d.trust, core.PoolOptions{})
	defer pool.Close()

	clientTrace := telemetry.NewTraceID()
	ctx := telemetry.WithTrace(context.Background(), clientTrace)

	res, err := pool.QueryRaw(ctx, "&(info=CPULoad)")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if v, _ := res.Entries[0].Get("CPULoad:load1"); v != "2" {
		t.Fatalf("query answer corrupted: %v", res.Entries)
	}
	// A multi-request mixing an info part and a job part, on the same
	// trace: its parts span concurrently under one dispatch root.
	waitCtx, cancel := contextWithTimeout(t)
	defer cancel()
	mcl, err := pool.Checkout(waitCtx)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := mcl.SubmitMultiContext(ctx, "+(&(info=CPULoad))(&(executable=noop)(jobtype=func))")
	pool.Checkin(mcl)
	if err != nil {
		t.Fatalf("multi submit: %v", err)
	}
	contact := ""
	for _, p := range parts {
		if p.Err != nil {
			t.Fatalf("multi part failed: %v", p.Err)
		}
		if p.Kind == "job" {
			contact = p.Contact
		}
	}
	if contact == "" {
		t.Fatalf("no job part in multi response: %+v", parts)
	}
	for {
		st, err := pool.Status(waitCtx, contact)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if st.State.Terminal() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	rec := waitForSpans(t, svc, clientTrace,
		"gsi.handshake", "request:SUBMIT", "part", "info.collect", "provider.collect",
		"cache.lookup", "gram.spawn", "scheduler.run", "journal.append", "journal.fsync")
	if rec.Trace != clientTrace {
		t.Fatalf("tree rooted at %s, want the client-minted %s", rec.Trace, clientTrace)
	}
	// Structure: gram.spawn parents under the SUBMIT dispatch tree, and
	// the async scheduler.run parents under gram.spawn even though it
	// finished after the submit acked.
	byID := map[telemetry.SpanID]telemetry.SpanRecord{}
	for _, s := range rec.Spans {
		byID[s.ID] = s
	}
	for _, s := range rec.Spans {
		switch s.Name {
		case "scheduler.run":
			if byID[s.Parent].Name != "gram.spawn" {
				t.Errorf("scheduler.run parent = %q, want gram.spawn", byID[s.Parent].Name)
			}
		case "request:SUBMIT":
			if s.Parent != 0 {
				t.Errorf("dispatch root has parent %v; the client sent no span", s.Parent)
			}
		}
		if s.Name != "gsi.handshake" && s.Duration < 0 {
			t.Errorf("span %s has negative duration %v", s.Name, s.Duration)
		}
	}

	// The same tree, served as information: one selftrace attribute per
	// trace, one per span, namespaced under the selftrace keyword.
	tres, err := pool.QueryRaw(context.Background(), "&(info=selftrace)")
	if err != nil {
		t.Fatalf("selftrace query: %v", err)
	}
	prefix := "selftrace:trace." + string(clientTrace)
	var header string
	spanAttrs := 0
	for _, e := range tres.Entries {
		for _, a := range e.Attrs {
			if a.Name == prefix {
				header = a.Value
			}
			if strings.HasPrefix(a.Name, prefix+".span.") {
				spanAttrs++
				if !strings.Contains(a.Value, "duration_us=") {
					t.Errorf("span attr %s lacks a duration: %q", a.Name, a.Value)
				}
			}
		}
	}
	if header == "" {
		t.Fatalf("info=selftrace did not expose trace %s", clientTrace)
	}
	if !strings.Contains(header, fmt.Sprintf("spans=%d", len(rec.Spans))) && spanAttrs == 0 {
		t.Errorf("selftrace header %q / %d span attrs inconsistent with store (%d spans)",
			header, spanAttrs, len(rec.Spans))
	}
	if spanAttrs < len(rec.Spans) {
		t.Errorf("selftrace rendered %d span attrs, store has %d", spanAttrs, len(rec.Spans))
	}
}

// Concurrent pooled calls, each under its own client-minted trace, must
// land in distinct server-side trees each rooted at its client's trace ID
// (run under -race by scripts/check.sh).
func TestTraceConcurrentPoolCalls(t *testing.T) {
	d := newDeployment(t)
	addr, svc := startTracedInfoGram(t, d)
	pool := core.NewPool(addr, d.user, d.trust, core.PoolOptions{Size: 4})
	defer pool.Close()

	const calls = 16
	traces := make([]telemetry.TraceID, calls)
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		traces[i] = telemetry.NewTraceID()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := telemetry.WithTrace(context.Background(), traces[i])
			_, errs[i] = pool.QueryRaw(ctx, "&(info=CPULoad)")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	for i, trace := range traces {
		rec, ok := svc.Tracer().Store().Get(trace)
		if !ok {
			t.Errorf("call %d: trace %s not stored", i, trace)
			continue
		}
		names := spanNames(rec)
		if names["request:SUBMIT"] == 0 {
			t.Errorf("call %d: tree %v lacks its dispatch span", i, names)
		}
		roots := 0
		for _, s := range rec.Spans {
			if s.Parent == 0 && s.Name == "request:SUBMIT" {
				roots++
			}
		}
		if roots != 1 {
			t.Errorf("call %d: %d dispatch roots, want exactly 1", i, roots)
		}
	}
}

// TestTraceChaos: tracing under fault injection. A provider fault leaves
// a finished error span in a retained trace (tail sampling keeps errored
// traces even at sample rate 0), and a wire.read fault mid-call is
// absorbed by the client retry with the replayed request still tracing
// end to end.
func TestTraceChaos(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	d := newDeployment(t)
	// Keep only errored traces: SampleRate < 0.
	jnl, _, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	svc := core.NewService(core.Config{
		ResourceName: "trace-chaos-site",
		Credential:   d.svcCred, Trust: d.trust, Gridmap: d.gridmap,
		Registry:     d.reg,
		Backends:     d.backends(),
		Journal:      jnl,
		Telemetry:    telemetry.NewRegistry(),
		TraceOptions: telemetry.TracerOptions{SampleRate: -1},
		// Graceful degradation, so a provider fault degrades the reply
		// (and errors the span) instead of failing the whole query.
		ProviderTimeout: time.Second,
	})
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	cl, err := core.DialWithOptions(addr, d.user, d.trust, core.Options{
		Retry:          chaosRetry,
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Healthy traffic is dropped by the negative sample rate.
	healthyTrace := telemetry.NewTraceID()
	if _, err := cl.QueryRawContext(telemetry.WithTrace(context.Background(), healthyTrace), "&(info=CPULoad)"); err != nil {
		t.Fatalf("healthy query: %v", err)
	}
	if _, ok := svc.Tracer().Store().Get(healthyTrace); ok {
		t.Fatal("healthy trace retained under sample<0")
	}

	// provider.collect=error*1: the query degrades, and the trace is
	// retained because its provider.collect span finished with an error.
	errTrace := telemetry.NewTraceID()
	faultinject.Arm(faultinject.ProviderCollect, faultinject.Action{Err: errors.New("sensor unplugged"), Count: 1})
	res, err := cl.QueryRawContext(telemetry.WithTrace(context.Background(), errTrace), "&(info=CPULoad)")
	if err != nil {
		t.Fatalf("degraded query errored: %v", err)
	}
	if !res.Degraded {
		t.Fatal("query did not degrade under the provider fault")
	}
	rec, ok := svc.Tracer().Store().Get(errTrace)
	if !ok {
		t.Fatal("errored trace not retained by tail sampling")
	}
	if !rec.Err {
		t.Error("trace error bit unset")
	}
	foundErrSpan := false
	for _, s := range rec.Spans {
		if s.Name == "provider.collect" && s.Err != "" {
			foundErrSpan = true
		}
	}
	if !foundErrSpan {
		t.Errorf("no finished provider.collect error span in %v", spanNames(rec))
	}

	// wire.read=error*1 mid-call: the retry replays the request on a
	// fresh connection, and the replay still joins the client's trace.
	retryTrace := telemetry.NewTraceID()
	faultinject.Arm(faultinject.WireRead, faultinject.Action{Err: errors.New("read cable cut"), Count: 1})
	// Arm a provider error too so the retried trace is retained under
	// the negative sample rate.
	faultinject.Arm(faultinject.ProviderCollect, faultinject.Action{Err: errors.New("sensor unplugged"), Count: 1})
	if _, err := cl.QueryRawContext(telemetry.WithTrace(context.Background(), retryTrace), "&(info=CPULoad)"); err != nil {
		t.Fatalf("query did not survive one injected read fault: %v", err)
	}
	rec, ok = svc.Tracer().Store().Get(retryTrace)
	if !ok {
		t.Fatal("retried request's trace not in the store")
	}
	if names := spanNames(rec); names["request:SUBMIT"] == 0 {
		t.Errorf("retried trace lacks a dispatch span: %v", names)
	}
}

// Interop in both directions: a client that asks for no capability
// against a tracing server speaks byte-for-byte the old protocol (the
// server then mints server-local traces), and a tracing client against a
// trace-disabled server is granted no trace and sends unprefixed frames.
func TestTraceOldPeerInterop(t *testing.T) {
	d := newDeployment(t)

	// New server, old client.
	addr, _ := startTracedInfoGram(t, d)
	oldClient, err := session.Dial(context.Background(), addr, session.DialOptions{Credential: d.user, Trust: d.trust})
	if err != nil {
		t.Fatal(err)
	}
	defer oldClient.Close()
	resp, err := oldClient.Call(context.Background(), wire.Frame{Verb: gram.VerbSubmit, Payload: []byte("&(info=CPULoad)")})
	if err != nil {
		t.Fatalf("old client against tracing server: %v", err)
	}
	entries, err := ldif.Unmarshal(string(resp.Payload))
	if err != nil || resp.Verb != core.VerbResultLDIF || len(entries) == 0 {
		t.Fatalf("old-client reply %s: %v", resp, err)
	}
	if v, _ := entries[0].Get("CPULoad:load1"); v != "2" {
		t.Fatalf("old-client reply corrupted: %v", entries)
	}

	// Old server (tracing disabled), new client: trace is declined and
	// requests flow unprefixed.
	d2 := newDeployment(t)
	svc2 := core.NewService(core.Config{
		ResourceName: "pre-trace-site",
		Credential:   d2.svcCred, Trust: d2.trust, Gridmap: d2.gridmap,
		Registry:       d2.reg,
		Backends:       d2.backends(),
		DisableTracing: true,
	})
	addr2, err := svc2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	newClient, err := core.Dial(addr2, d2.user, d2.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer newClient.Close()
	ctx := telemetry.WithTrace(context.Background(), telemetry.NewTraceID())
	if _, err := newClient.QueryRawContext(ctx, "&(info=CPULoad)"); err != nil {
		t.Fatalf("new client against pre-trace server: %v", err)
	}
	if tr := svc2.Tracer(); tr != nil {
		t.Fatal("DisableTracing left a tracer installed")
	}

	// An info=selftrace query against the pre-trace server answers like
	// any unknown keyword would — tracing leaves no schema residue.
	if res, err := newClient.QueryRaw("&(info=all)"); err == nil {
		for _, e := range res.Entries {
			if kw, _ := e.Get("kw"); kw == provider.SelfTraceKeyword {
				t.Error("selftrace provider registered despite DisableTracing")
			}
		}
	}
}

package core_test

// Client-protocol edge cases: mixed multi-request outcomes, DSML through
// multi-requests, last-mode on a cold cache, and denied parts inside a
// multi-request.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"infogram/internal/cache"
	"infogram/internal/core"
	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/provider"
	"infogram/internal/session"
	"infogram/internal/wire"
	"infogram/internal/xrsl"
)

// TestWaitTerminalHonoursContextOnSilentStatus: a WaitTerminal whose
// context expires while its STATUS is unanswered returns promptly with
// context.DeadlineExceeded, from the baseline gram.Client (no I/O timeout
// of its own, so only the context can end the wait) as from core.Client.
func TestWaitTerminalHonoursContextOnSilentStatus(t *testing.T) {
	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=Test CA", time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	svcCred, _ := ca.IssueIdentity("/O=Grid/CN=service", time.Hour, now)
	user, _ := ca.IssueIdentity("/O=Grid/CN=alice", time.Hour, now)
	release := make(chan struct{})
	srv := session.NewServer(session.Config{
		Credential: svcCred,
		Trust:      trust,
		ErrorVerb:  gram.VerbError,
		Handler: func(_ context.Context, _ *session.Peer, req wire.Frame) wire.Frame {
			if req.Verb == gram.VerbStatus {
				<-release // never answered while the test runs
			}
			return wire.Frame{Verb: gram.VerbError, Payload: []byte("released")}
		},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release)

	type waiter interface {
		WaitTerminal(context.Context, string, time.Duration) (gram.StatusReply, error)
		Close() error
	}
	for _, c := range []struct {
		name string
		dial func() (waiter, error)
	}{
		{"gram", func() (waiter, error) { return gram.Dial(addr, user, trust) }},
		{"core", func() (waiter, error) { return core.Dial(addr, user, trust) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			cl, err := c.dial()
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := cl.WaitTerminal(ctx, "gram://"+addr+"/job/1", time.Millisecond)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("WaitTerminal = %v, want context.DeadlineExceeded", err)
				}
			case <-time.After(5 * time.Second):
				t.Error("WaitTerminal still blocked 5s after a 100ms context")
			}
		})
	}
}

func TestMultiRequestWithErrorPart(t *testing.T) {
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "K",
		Values:      provider.Attributes{{Name: "v", Value: "1"}},
	}, provider.RegisterOptions{TTL: time.Hour})
	g := newTestGrid(t, reg)
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Part 2 queries an unknown keyword: it fails, the others succeed.
	parts, err := cl.SubmitMulti("+(&(info=K))(&(info=Ghost))(&(executable=hello)(jobtype=func))")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	if parts[0].Kind != "info" || parts[0].Info == nil {
		t.Errorf("part 0 = %+v", parts[0])
	}
	if parts[1].Kind != "error" || parts[1].Err == nil {
		t.Errorf("part 1 = %+v", parts[1])
	}
	if parts[2].Kind != "job" || parts[2].Contact == "" {
		t.Errorf("part 2 = %+v", parts[2])
	}
}

func TestMultiRequestMixedFormats(t *testing.T) {
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "K",
		Values:      provider.Attributes{{Name: "v", Value: "1"}},
	}, provider.RegisterOptions{TTL: time.Hour})
	g := newTestGrid(t, reg)
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	parts, err := cl.SubmitMulti("+(&(info=K))(&(info=K)(format=xml))(&(info=K)(format=dsml))")
	if err != nil {
		t.Fatal(err)
	}
	wantFormats := []xrsl.Format{xrsl.FormatLDIF, xrsl.FormatXML, xrsl.FormatDSML}
	for i, p := range parts {
		if p.Info == nil {
			t.Fatalf("part %d: %+v", i, p)
		}
		if p.Info.Format != wantFormats[i] {
			t.Errorf("part %d format = %v, want %v", i, p.Info.Format, wantFormats[i])
		}
		if v, _ := p.Info.Entries[0].Get("K:v"); v != "1" {
			t.Errorf("part %d K:v = %q", i, v)
		}
	}
}

func TestSingleElementMultiRequest(t *testing.T) {
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{KeywordName: "K"}, provider.RegisterOptions{TTL: time.Hour})
	g := newTestGrid(t, reg)
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// A '+' with one component answers like a plain request; SubmitMulti
	// normalizes it.
	parts, err := cl.SubmitMulti("+(&(info=K))")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 || parts[0].Kind != "info" {
		t.Errorf("parts = %+v", parts)
	}
}

func TestLastModeColdCacheOverWire(t *testing.T) {
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{KeywordName: "K"}, provider.RegisterOptions{TTL: time.Hour})
	g := newTestGrid(t, reg)
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// response=last with nothing cached: the paper's querystate
	// exception surfaces as a query error.
	if _, err := cl.QueryRaw("&(info=K)(response=last)"); err == nil ||
		!strings.Contains(err.Error(), "never fetched") {
		t.Errorf("cold last-mode: %v", err)
	}
	// After one cached read, last works.
	if _, err := cl.QueryRaw("&(info=K)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.QueryRaw("&(info=K)(response=last)"); err != nil {
		t.Errorf("warm last-mode: %v", err)
	}
	_ = cache.Last
}

func TestJobControlThroughInfoGram(t *testing.T) {
	// Job control parity with GRAM on the unified service: typed submit,
	// suspend/resume of a forked process group, and cancel.
	reg := provider.NewRegistry(nil)
	g := newTestGrid(t, reg)
	if g.svc.Addr() != g.addr {
		t.Errorf("Addr = %q", g.svc.Addr())
	}
	if g.svc.Registry() != reg {
		t.Error("Registry accessor broken")
	}
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got := cl.Server().Identity; got != "/O=Grid/CN=service" {
		t.Errorf("Server identity = %q", got)
	}

	// Typed submission of a forked job.
	contact, err := cl.SubmitJob(xrsl.JobRequest{
		Executable: "/bin/sh",
		Arguments:  []string{"-c", "sleep 0.15; echo through"},
		JobType:    "exec",
		Count:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.svc.Table().Len() != 1 {
		t.Errorf("table len = %d", g.svc.Table().Len())
	}
	// Reach ACTIVE, suspend, verify, resume, finish.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := cl.Status(contact)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.String() == "ACTIVE" {
			break
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("never ACTIVE: %v", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cl.Signal(contact, "suspend"); err != nil {
		t.Fatalf("suspend: %v", err)
	}
	st, err := cl.Status(contact)
	if err != nil || st.State.String() != "SUSPENDED" {
		t.Fatalf("after suspend: %v %v", st.State, err)
	}
	if err := cl.Signal(contact, "resume"); err != nil {
		t.Fatalf("resume: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := cl.WaitTerminal(ctx, contact, 5*time.Millisecond)
	if err != nil || final.State.String() != "DONE" || !strings.Contains(final.Stdout, "through") {
		t.Fatalf("final = %+v %v", final, err)
	}

	// Cancel a long fork job.
	contact2, err := cl.SubmitJob(xrsl.JobRequest{
		Executable: "/bin/sleep", Arguments: []string{"30"}, JobType: "exec", Count: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := cl.Cancel(contact2); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	st2, err := cl.WaitTerminal(ctx, contact2, 5*time.Millisecond)
	if err != nil || st2.State.String() != "FAILED" {
		t.Errorf("cancelled = %+v %v", st2, err)
	}
	// Error paths over the wire.
	if err := cl.Cancel("gram://nope/9/9"); err == nil {
		t.Error("cancel unknown succeeded")
	}
	if err := cl.Signal("gram://nope/9/9", "suspend"); err == nil {
		t.Error("signal unknown succeeded")
	}
	if err := cl.Signal(contact2, "badpayloadnospace"); err == nil {
		t.Error("malformed signal succeeded")
	}
}

func TestEmptyRegistryInfoAll(t *testing.T) {
	// An "empty" registry still carries the built-in selfmetrics and
	// selftrace providers the service registers at construction, so
	// info=all answers with exactly those two entries.
	g := newTestGrid(t, provider.NewRegistry(nil))
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.QueryRaw("&(info=all)")
	if err != nil {
		t.Fatalf("info=all on empty registry: %v", err)
	}
	if len(res.Entries) != 2 {
		t.Fatalf("entries = %d, want selfmetrics and selftrace", len(res.Entries))
	}
	kws := map[string]bool{}
	for _, e := range res.Entries {
		kw, _ := e.Get("kw")
		kws[kw] = true
	}
	if !kws[provider.SelfMetricsKeyword] || !kws[provider.SelfTraceKeyword] {
		t.Errorf("keywords = %v, want %q and %q", kws, provider.SelfMetricsKeyword, provider.SelfTraceKeyword)
	}
	schema, err := cl.Schema()
	if err != nil || len(schema) != 2 {
		t.Errorf("schema = %v, %v", schema, err)
	}
}

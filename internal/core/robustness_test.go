package core_test

// Failure injection: misbehaving clients, dead callback listeners, garbage
// frames, and protocol misuse must degrade gracefully — a Grid service
// lives on a hostile network.

import (
	"context"
	"strings"
	"testing"
	"time"

	"infogram/internal/core"
	"infogram/internal/gram"
	"infogram/internal/job"
	"infogram/internal/provider"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
)

func TestGarbageBeforeHandshake(t *testing.T) {
	g := newTestGrid(t, provider.NewRegistry(nil))
	// Raw connection sending junk instead of AUTH: the server must drop
	// it without disturbing other clients.
	conn, err := wire.Dial(g.addr)
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.WriteString("GARBAGE", "not an auth frame")
	// Server replies AUTH-ERR or closes; either way the next real client
	// works.
	conn.Close()

	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatalf("clean client after garbage client: %v", err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Errorf("Ping: %v", err)
	}
}

func TestMalformedFrameMidSession(t *testing.T) {
	g := newTestGrid(t, provider.NewRegistry(nil))
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// An unknown verb gets an ERROR frame, not a dropped connection.
	if _, err := cl.Submit("((broken"); err == nil {
		t.Error("malformed xRSL accepted")
	}
	// The session is still alive.
	if err := cl.Ping(); err != nil {
		t.Errorf("Ping after error: %v", err)
	}
}

func TestDeadCallbackListenerDoesNotBreakJob(t *testing.T) {
	reg := provider.NewRegistry(nil)
	g := newTestGrid(t, reg)
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Create a listener, learn its address, kill it: callbacks go
	// nowhere, the job must still complete.
	listener, err := gram.NewCallbackListener()
	if err != nil {
		t.Fatal(err)
	}
	contactAddr := listener.Contact()
	listener.Close()

	contact, err := cl.Submit("&(executable=hello)(jobtype=func)(callback=" + contactAddr + ")")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := cl.WaitTerminal(ctx, contact, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != job.Done {
		t.Errorf("st = %+v", st)
	}
}

func TestSubmitMisuseHints(t *testing.T) {
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{KeywordName: "K"}, provider.RegisterOptions{TTL: time.Hour})
	g := newTestGrid(t, reg)
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Submit of an info query hints at Query.
	if _, err := cl.Submit("&(info=K)"); err == nil {
		t.Error("Submit of info query succeeded")
	}
	// QueryRaw of a job hints at Submit — and must not leave a stray job
	// behind? It does submit (the server cannot know the caller's intent)
	// but the client reports the misuse.
	if _, err := cl.QueryRaw("&(executable=hello)(jobtype=func)"); err == nil {
		t.Error("QueryRaw of job spec succeeded")
	}
}

// TestSubmitMisuseIsOneErrorForBothClients: the two clients share one
// Submit, so a SUBMIT of an information query fails the same way from
// each, naming the reply's verb.
func TestSubmitMisuseIsOneErrorForBothClients(t *testing.T) {
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{KeywordName: "K"}, provider.RegisterOptions{TTL: time.Hour})
	g := newTestGrid(t, reg)
	icl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer icl.Close()
	gcl, err := gram.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer gcl.Close()
	const want = "gram: SUBMIT answered RESULT-LDIF, not SUBMITTED"
	for name, submit := range map[string]func(string) (string, error){"core": icl.Submit, "gram": gcl.Submit} {
		if _, err := submit("&(info=K)"); err == nil || err.Error() != want {
			t.Errorf("%s: Submit of an info query = %v, want %q", name, err, want)
		}
	}
}

func TestClientDisconnectMidJob(t *testing.T) {
	// A client that submits and vanishes: the job still runs to
	// completion and is visible to a second client.
	g := newTestGrid(t, provider.NewRegistry(nil))
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	contact, err := cl.Submit("&(executable=hello)(jobtype=func)")
	if err != nil {
		t.Fatal(err)
	}
	cl.Close() // vanish

	cl2, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := cl2.WaitTerminal(ctx, contact, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != job.Done {
		t.Errorf("orphaned job = %+v", st)
	}
}

func TestProviderFailureIsIsolated(t *testing.T) {
	// One broken provider fails its own queries but not the service.
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "Good",
		Values:      provider.Attributes{{Name: "v", Value: "1"}},
	}, provider.RegisterOptions{TTL: time.Hour})
	bad, err := provider.NewExecProvider("Bad", "/nonexistent/tool")
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(bad, provider.RegisterOptions{TTL: time.Hour})

	g := newTestGrid(t, reg)
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.QueryRaw("&(info=Bad)"); err == nil {
		t.Error("broken provider succeeded")
	}
	res, err := cl.QueryRaw("&(info=Good)")
	if err != nil {
		t.Fatalf("good provider after bad: %v", err)
	}
	if v, _ := res.Entries[0].Get("Good:v"); v != "1" {
		t.Errorf("Good:v = %q", v)
	}
	// (info=all) fails all-or-nothing because Bad is included...
	if _, err := cl.QueryRaw("&(info=all)"); err == nil {
		t.Error("all-or-nothing violated")
	}
	// ...and the service survives it all.
	if err := cl.Ping(); err != nil {
		t.Errorf("Ping: %v", err)
	}
}

// An identity with a valid certificate and no gridmap entry gets the
// gatekeeper's reason, not a negotiation failure: a HELLO for trace and
// mux does not run the gate, so Dial succeeds and the first request carries
// the refusal — a protocol answer the client does not retry.
func TestGatekeeperErrorSurvivesNegotiation(t *testing.T) {
	g := newTestGrid(t, provider.NewRegistry(nil))
	mallory, err := g.ca.IssueIdentity("/O=Grid/CN=mallory", time.Hour, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.NewRegistry()
	cl, err := core.DialWithOptions(g.addr, mallory, g.trust, core.Options{
		Telemetry: tel,
		Retry:     core.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatalf("Dial (authn and negotiation should succeed): %v", err)
	}
	defer cl.Close()
	if err := cl.Ping(); err == nil || !strings.Contains(err.Error(), "gridmap") {
		t.Errorf("first request: got %v, want the gatekeeper's gridmap refusal", err)
	}
	retries := tel.Counter("infogram_client_retries_total",
		"transparent client retries after transient connect, handshake, or wire failures")
	if n := retries.Value(); n != 0 {
		t.Errorf("client retried %d times over a gatekeeper refusal", n)
	}
}

package core_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"infogram/internal/core"
	"infogram/internal/faultinject"
	"infogram/internal/gsi"
	"infogram/internal/provider"
	"infogram/internal/session"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
)

// fastRetry keeps retry tests quick without disabling the policy.
var fastRetry = core.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}

func retriesCounter(tel *telemetry.Registry) *telemetry.Counter {
	return tel.Counter("infogram_client_retries_total",
		"transparent client retries after transient connect, handshake, or wire failures")
}

// A refused connection is transient: Dial retries MaxAttempts times, each
// retry counted, before giving up.
func TestDialRetriesRefusedConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nobody home: every dial is refused

	tel := telemetry.NewRegistry()
	g := newTestGrid(t, provider.NewRegistry(nil))
	_, err = core.DialWithOptions(addr, g.user, g.trust, core.Options{
		Retry: fastRetry, Telemetry: tel,
	})
	if err == nil {
		t.Fatal("Dial to a closed port succeeded")
	}
	if got := retriesCounter(tel).Value(); got != 2 {
		t.Fatalf("retries = %d; want 2 (three attempts)", got)
	}
}

// An authentication failure is a protocol answer, not a transport fault:
// no retry.
func TestDialAuthFailureNotRetried(t *testing.T) {
	g := newTestGrid(t, provider.NewRegistry(nil))
	// A client that trusts a different CA rejects the server's identity.
	otherCA, err := gsi.NewCA("/O=Grid/CN=Other CA", time.Hour, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.NewRegistry()
	_, err = core.DialWithOptions(g.addr, g.user, gsi.NewTrustStore(otherCA.Certificate()), core.Options{
		Retry: fastRetry, Telemetry: tel,
	})
	if err == nil {
		t.Fatal("handshake against an untrusted server succeeded")
	}
	if got := retriesCounter(tel).Value(); got != 0 {
		t.Fatalf("auth failure was retried %d times", got)
	}
}

// A transport fault during SUBMIT must surface as an error with zero
// retries: the job may already be running server-side.
func TestSubmitNotRetriedOnTransportFault(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	g := newTestGrid(t, provider.NewRegistry(nil))
	tel := telemetry.NewRegistry()
	cl, err := core.DialWithOptions(g.addr, g.user, g.trust, core.Options{
		Retry: fastRetry, RequestTimeout: 2 * time.Second, Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The fault lands on whichever side reads next: the client sees either
	// its own injected read error or the EOF of the server tearing down.
	faultinject.Arm(faultinject.WireRead, faultinject.Action{Err: errors.New("torn mid-submit"), Count: 1})
	_, err = cl.Submit("&(executable=hello)(jobtype=func)")
	if err == nil {
		t.Fatal("Submit succeeded despite the transport fault")
	}
	if got := retriesCounter(tel).Value(); got != 0 {
		t.Fatalf("submission retried %d times; submissions must never retry", got)
	}
}

// The same fault on an idempotent query IS retried and recovered.
func TestQueryRetriedOnTransportFault(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "Load",
		Values:      provider.Attributes{{Name: "v", Value: "7"}},
	}, provider.RegisterOptions{TTL: time.Minute})
	g := newTestGrid(t, reg)
	tel := telemetry.NewRegistry()
	cl, err := core.DialWithOptions(g.addr, g.user, g.trust, core.Options{
		Retry: fastRetry, RequestTimeout: 2 * time.Second, Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	faultinject.Arm(faultinject.WireRead, faultinject.Action{Err: errors.New("torn mid-query"), Count: 1})
	res, err := cl.QueryRaw("&(info=Load)")
	if err != nil {
		t.Fatalf("query did not survive one transport fault: %v", err)
	}
	if v, _ := res.Entries[0].Get("Load:v"); v != "7" {
		t.Fatalf("post-retry entries = %v", res.Entries)
	}
	if got := retriesCounter(tel).Value(); got == 0 {
		t.Fatal("recovery happened without a counted retry")
	}
}

// A mux'd call whose write times out (the server stopped reading) kills
// its session, so the client's next call re-dials instead of failing on
// the dead connection forever.
func TestClientRedialsAfterWriteTimeout(t *testing.T) {
	g := newTestGrid(t, provider.NewRegistry(nil))
	cl := core.NewClient(g.addr, g.user, g.trust, core.Options{})
	defer cl.Close()
	a, b := net.Pipe()
	defer b.Close() // the stalled peer never reads
	conn := wire.NewConn(a)
	mux := wire.NewMuxConn(conn)
	cl.SetSession(&session.Client{Conn: conn, Mux: mux})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := cl.PingContext(ctx); err == nil {
		t.Fatal("ping to a peer that never reads succeeded")
	}
	if mux.Err() == nil {
		t.Fatal("the timed-out write left its connection reporting healthy")
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("the call after a timed-out write did not re-dial: %v", err)
	}
}

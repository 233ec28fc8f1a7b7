package wsgw_test

import (
	"context"
	"encoding/xml"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infogram/internal/core"
	"infogram/internal/faultinject"
	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/provider"
	"infogram/internal/scheduler"
	"infogram/internal/telemetry"
	"infogram/internal/wsgw"
)

// harness: an InfoGram backend plus an HTTP gateway in front of it.
type harness struct {
	backend *core.Service
	web     *httptest.Server
	// restart closes the backend and serves a fresh one on its address.
	restart func()
	// runs counts executions of the "count" func job.
	runs atomic.Int64
}

func newHarness(t *testing.T, token string) *harness {
	t.Helper()
	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=CA", time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Certificate())
	svcCred, _ := ca.IssueIdentity("/O=Grid/CN=svc", time.Hour, now)
	gwCred, _ := ca.IssueIdentity("/O=Grid/CN=web-gateway", time.Hour, now)
	gm := gsi.NewGridmap()
	gm.Add("/O=Grid/CN=web-gateway", "webuser")

	h := &harness{}
	newBackend := func() *core.Service {
		reg := provider.NewRegistry(nil)
		reg.Register(&provider.StaticProvider{
			KeywordName: "Memory",
			Values:      provider.Attributes{{Name: "total", Value: "1024"}},
		}, provider.RegisterOptions{TTL: time.Hour})

		fn := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
		fn.RegisterFunc("noop", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
			return "web job done", nil
		})
		fn.RegisterFunc("count", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
			h.runs.Add(1)
			return "", nil
		})
		fn.RegisterFunc("block", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
			<-ctx.Done()
			return "", ctx.Err()
		})
		return core.NewService(core.Config{
			ResourceName: "ws.example",
			Credential:   svcCred, Trust: trust, Gridmap: gm,
			Registry:  reg,
			Backends:  gram.Backends{Func: fn},
			Telemetry: telemetry.NewRegistry(),
		})
	}
	h.backend = newBackend()
	addr, err := h.backend.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.backend.Close() })
	h.restart = func() {
		h.backend.Close()
		h.backend = newBackend()
		// The port may linger briefly, so rebinding retries.
		deadline := time.Now().Add(10 * time.Second)
		for {
			_, err := h.backend.Listen(addr)
			if err == nil {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("rebind %s: %v", addr, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	gw := wsgw.New(wsgw.Config{
		Backend:    addr,
		Credential: gwCred,
		Trust:      trust,
		Token:      token,
	})
	t.Cleanup(gw.Close)
	h.web = httptest.NewServer(gw)
	t.Cleanup(h.web.Close)
	return h
}

// post sends an envelope and returns the decoded body payload.
func post(t *testing.T, h *harness, token, envelope string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, h.web.URL, strings.NewReader(envelope))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/xml")
	if token != "" {
		req.Header.Set("X-InfoGram-Token", token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func TestWSDL(t *testing.T) {
	h := newHarness(t, "")
	resp, err := http.Get(h.web.URL + "?wsdl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{"<definitions", "Submit", "Status", "Cancel", "urn:infogram"} {
		if !strings.Contains(body, want) {
			t.Errorf("WSDL missing %q", want)
		}
	}
}

func TestInfoQueryOverHTTP(t *testing.T) {
	h := newHarness(t, "")
	_, body := post(t, h, "",
		`<Envelope><Body><Submit><specification>(info=Memory)</specification></Submit></Body></Envelope>`)
	if !strings.Contains(body, "<kind>info</kind>") {
		t.Fatalf("body = %s", body)
	}
	if !strings.Contains(body, "Memory:total: 1024") {
		t.Errorf("result document missing data: %s", body)
	}
}

func TestJobOverHTTP(t *testing.T) {
	h := newHarness(t, "")
	contact := submitJob(t, h, "noop")
	if body := waitState(t, h, contact, "DONE"); !strings.Contains(body, "web job done") {
		t.Errorf("stdout missing: %s", body)
	}
}

// submitJob submits a func job over HTTP and returns its contact.
func submitJob(t *testing.T, h *harness, name string) string {
	t.Helper()
	_, body := post(t, h, "",
		`<Envelope><Body><Submit><specification>(executable=`+name+`)(jobtype=func)</specification></Submit></Body></Envelope>`)
	var env struct {
		Body struct {
			Resp wsgw.SubmitResponse `xml:"SubmitResponse"`
		} `xml:"Body"`
	}
	if err := xml.Unmarshal([]byte(body), &env); err != nil || env.Body.Resp.Kind != "job" || env.Body.Resp.Contact == "" {
		t.Fatalf("submit %s: no contact (%v): %s", name, err, body)
	}
	return env.Body.Resp.Contact
}

// waitState polls a job over HTTP until it reaches state and returns the
// last status reply.
func waitState(t *testing.T, h *harness, contact, state string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body := post(t, h, "",
			`<Envelope><Body><Status><contact>`+contact+`</contact></Status></Body></Envelope>`)
		if strings.Contains(body, "<state>"+state+"</state>") {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s: %s", contact, state, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCancelOverHTTP(t *testing.T) {
	h := newHarness(t, "")
	// Cancel of an unknown contact surfaces as a Fault.
	resp, body := post(t, h, "",
		`<Envelope><Body><Cancel><contact>gram://nope/1/1</contact></Cancel></Body></Envelope>`)
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(body, "<Fault>") {
		t.Errorf("status=%d body=%s", resp.StatusCode, body)
	}
}

func TestTokenAuth(t *testing.T) {
	h := newHarness(t, "sekret")
	resp, body := post(t, h, "",
		`<Envelope><Body><Submit><specification>(info=Memory)</specification></Submit></Body></Envelope>`)
	if resp.StatusCode != http.StatusUnauthorized || !strings.Contains(body, "Fault") {
		t.Errorf("unauthenticated: status=%d body=%s", resp.StatusCode, body)
	}
	resp, body = post(t, h, "sekret",
		`<Envelope><Body><Submit><specification>(info=Memory)</specification></Submit></Body></Envelope>`)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "<kind>info</kind>") {
		t.Errorf("authenticated: status=%d body=%s", resp.StatusCode, body)
	}
}

func TestBadRequests(t *testing.T) {
	h := newHarness(t, "")
	cases := []struct {
		name     string
		envelope string
		status   int
	}{
		{"garbage", "not xml", http.StatusBadRequest},
		{"empty body op", "<Envelope><Body></Body></Envelope>", http.StatusBadRequest},
		{"bad xrsl", "<Envelope><Body><Submit><specification>((((</specification></Submit></Body></Envelope>", http.StatusBadRequest},
		{"multi rejected", "<Envelope><Body><Submit><specification>+(&amp;(info=all))(&amp;(info=schema))</specification></Submit></Body></Envelope>", http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, _ := post(t, h, "", c.envelope)
			if resp.StatusCode != c.status {
				t.Errorf("status = %d, want %d", resp.StatusCode, c.status)
			}
		})
	}
	// GET without ?wsdl.
	resp, err := http.Get(h.web.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bare GET status = %d", resp.StatusCode)
	}
}

// requests reads the backend's count of dispatched requests of one verb.
func (h *harness) requests(verb string) int64 {
	return h.backend.Telemetry().Counter("infogram_requests_total", "protocol requests dispatched, by verb",
		telemetry.Label{Key: "verb", Value: verb}).Value()
}

// TestGatewayReconnects: a backend restarted on the same address is
// reached through a fresh connection; the read that found the old one
// dead is retried once and succeeds.
func TestGatewayReconnects(t *testing.T) {
	h := newHarness(t, "")
	// Prime the backend connection.
	if _, body := post(t, h, "",
		`<Envelope><Body><Submit><specification>(info=Memory)</specification></Submit></Body></Envelope>`); !strings.Contains(body, "info") {
		t.Fatalf("prime failed: %s", body)
	}
	h.restart()
	_, body := post(t, h, "",
		`<Envelope><Body><Submit><specification>(info=Memory)</specification></Submit></Body></Envelope>`)
	if !strings.Contains(body, "Memory:total: 1024") {
		t.Errorf("post-reconnect body = %s", body)
	}
}

// TestGatewaySharesOneConnection: concurrent web requests share the
// gateway's one multiplexed backend connection instead of waiting for or
// dialing one each.
func TestGatewaySharesOneConnection(t *testing.T) {
	h := newHarness(t, "")
	const n = 16
	var wg sync.WaitGroup
	bodies := make([]string, n)
	errs := make([]error, n)
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(h.web.URL, "text/xml", strings.NewReader(
				`<Envelope><Body><Submit><specification>(info=Memory)</specification></Submit></Body></Envelope>`))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			bodies[i], errs[i] = string(b), err
		}()
	}
	wg.Wait()
	for i, body := range bodies {
		if errs[i] != nil || !strings.Contains(body, "Memory:total: 1024") {
			t.Fatalf("request %d: %v %s", i, errs[i], body)
		}
	}
	if got := h.backend.AcceptedConns(); got != 1 {
		t.Errorf("backend accepted %d connections for %d concurrent requests, want 1", got, n)
	}
}

// TestGatewayNeverResubmits: a job Submit whose reply is lost (the
// wire.mux failpoint fails the one in-flight call) must not be re-sent on
// a fresh connection. The backend runs the job exactly once and the web
// caller gets a Fault, not a success for a job that ran twice.
func TestGatewayNeverResubmits(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	h := newHarness(t, "")
	before := faultinject.Triggered(faultinject.WireMux)
	faultinject.Arm(faultinject.WireMux, faultinject.Action{Count: 1})
	resp, body := post(t, h, "",
		`<Envelope><Body><Submit><specification>(executable=count)(jobtype=func)</specification></Submit></Body></Envelope>`)
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(body, "<Fault>") {
		t.Errorf("lost SUBMITTED reply: status=%d body=%s; want a Fault", resp.StatusCode, body)
	}
	if got := faultinject.Triggered(faultinject.WireMux) - before; got != 1 {
		t.Fatalf("wire.mux fired %d times, want 1", got)
	}
	if n := h.requests("submit"); n != 1 {
		t.Errorf("backend received %d SUBMITs, want 1", n)
	}
	if n := h.backend.Table().Len(); n != 1 {
		t.Errorf("backend holds %d jobs, want 1", n)
	}
	// A later job on the same gateway finishes; the lost one ran once.
	contact := submitJob(t, h, "count")
	waitState(t, h, contact, "DONE")
	deadline := time.Now().Add(10 * time.Second)
	for h.runs.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := h.runs.Load(); n != 2 {
		t.Errorf("two jobs accepted, %d runs; want 2", n)
	}
}

// TestGatewayNeverRecancels: a Cancel whose reply is lost is not re-sent
// either.
func TestGatewayNeverRecancels(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	h := newHarness(t, "")
	contact := submitJob(t, h, "block")
	faultinject.Arm(faultinject.WireMux, faultinject.Action{Count: 1})
	resp, body := post(t, h, "",
		`<Envelope><Body><Cancel><contact>`+contact+`</contact></Cancel></Body></Envelope>`)
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(body, "<Fault>") {
		t.Errorf("lost CANCEL reply: status=%d body=%s; want a Fault", resp.StatusCode, body)
	}
	if n := h.requests("cancel"); n != 1 {
		t.Errorf("backend received %d CANCELs, want 1", n)
	}
	waitState(t, h, contact, "FAILED") // a cancelled job ends FAILED, "cancelled"
}

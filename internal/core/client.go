// The InfoGram client: the job verbs it shares with gram.Client
// (gram.Verbs) and the information queries only InfoGram answers, over
// one connection policy — redial after a transport failure, retry of
// idempotent requests only, mux, and an admission REJECT returned as
// *RejectedError.

package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"

	"infogram/internal/clock"
	"infogram/internal/faultinject"
	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/ldif"
	"infogram/internal/session"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
	"infogram/internal/xmlenc"
	"infogram/internal/xrsl"
)

// RetryPolicy bounds the client's transparent recovery from transient
// transport failures: connect errors, handshake interruptions, broken or
// timed-out connections. Retries apply only to connection establishment
// and to idempotent requests (ping, query, status) — a SUBMIT that may
// already have reached the server is never replayed, because the job
// could run twice.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// Values below 2 disable retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// retry. Defaults to 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Defaults to 2s.
	MaxDelay time.Duration
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 2 {
		return 1
	}
	return p.MaxAttempts
}

// backoff returns the pause before the retry-th retry (1-based):
// exponential from BaseDelay, capped at MaxDelay, with deterministic
// jitter spreading the result over [d/2, d). The jitter hashes the retry
// index instead of drawing randomness so tests (and replayed incidents)
// see identical schedules.
func (p RetryPolicy) backoff(retry int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	cap := p.MaxDelay
	if cap <= 0 {
		cap = 2 * time.Second
	}
	d := base
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= cap || d <= 0 {
			d = cap
			break
		}
	}
	if d > cap {
		d = cap
	}
	h := uint64(retry) * 0x9E3779B97F4A7C15
	frac := float64(h>>40) / float64(1<<24) // [0,1)
	return d/2 + time.Duration(frac*float64(d/2))
}

// Options configures a client beyond the required credentials.
type Options struct {
	// Clock defaults to the system clock; a clock.Fake with its Sleeper
	// implementation makes backoff instantaneous in tests.
	Clock clock.Clock
	// Retry is the transient-failure retry policy; the zero value
	// disables retrying.
	Retry RetryPolicy
	// DialTimeout bounds connection establishment and, through the wire
	// layer, each subsequent frame operation on the connection. Zero
	// means unbounded.
	DialTimeout time.Duration
	// RequestTimeout bounds each request/response exchange (and each
	// handshake). Zero means unbounded.
	RequestTimeout time.Duration
	// Telemetry optionally receives infogram_client_retries_total.
	Telemetry *telemetry.Registry
	// DisableMux forces the pre-mux serial protocol even against servers
	// that support multiplexing. With mux (the default against a mux-aware
	// server), concurrent requests share the one authenticated connection
	// and responses return by correlation ID; without it they serialize.
	DisableMux bool
}

// Client is the single client an InfoGram deployment needs: one
// authenticated connection, one protocol, both job execution and
// information queries — contrast with the Figure 2 baseline where a client
// must hold a gram.Client and an mds.Client against two ports.
//
// A Client is safe for concurrent use. Against a mux-aware server (any
// post-negotiation deployment) concurrent requests genuinely share the
// one GSI-authenticated connection out of order; against a pre-mux server
// they serialize on it.
type Client struct {
	// Verbs are the job verbs — Ping, Submit, Status, Cancel, Signal,
	// each with a Context form, and WaitTerminal — shared with
	// gram.Client and run over call. A Submit of an information query
	// fails naming the reply's verb: use Query.
	gram.Verbs

	addr    string
	cred    *gsi.Credential
	trust   *gsi.TrustStore
	opts    Options
	clk     clock.Clock
	retries *telemetry.Counter

	mu     sync.Mutex
	sess   *session.Client // nil while disconnected
	peer   *gsi.Peer
	closed bool // set by Close, after which the client never reconnects
	// dialing holds one token while a reconnect runs; guarded by mu.
	dialing chan struct{}
}

// errClientClosed fails requests made after Close.
var errClientClosed = errors.New("infogram: client closed")

// Dial connects and authenticates to an InfoGram service.
func Dial(addr string, cred *gsi.Credential, trust *gsi.TrustStore) (*Client, error) {
	return DialWithOptions(addr, cred, trust, Options{})
}

// DialWithOptions is Dial with timeouts, a retry policy, and telemetry.
// Connection establishment itself honours the retry policy: transient
// dial and handshake failures back off and try again.
func DialWithOptions(addr string, cred *gsi.Credential, trust *gsi.TrustStore, opts Options) (*Client, error) {
	return dialContext(context.Background(), addr, cred, trust, opts)
}

// NewClient returns a client that connects on its first request instead
// of now. Like every Client it re-dials after a transport failure.
func NewClient(addr string, cred *gsi.Credential, trust *gsi.TrustStore, opts Options) *Client {
	if opts.Clock == nil {
		opts.Clock = clock.System
	}
	c := &Client{addr: addr, cred: cred, trust: trust, opts: opts, clk: opts.Clock}
	c.Verbs = gram.NewVerbs((*exchange)(c))
	if opts.Telemetry != nil {
		c.retries = opts.Telemetry.Counter("infogram_client_retries_total",
			"transparent client retries after transient connect, handshake, or wire failures")
	}
	return c
}

// dialContext is DialWithOptions bounded by ctx: every connect attempt
// runs under it, and its expiry ends the retries.
func dialContext(ctx context.Context, addr string, cred *gsi.Credential, trust *gsi.TrustStore, opts Options) (*Client, error) {
	c := NewClient(addr, cred, trust, opts)
	attempts := opts.Retry.attempts()
	for attempt := 1; ; attempt++ {
		sess, err := c.connect(ctx)
		if err == nil {
			c.sess, c.peer = sess, sess.Peer
			return c, nil
		}
		if attempt >= attempts || !isTransient(err) || ctx.Err() != nil {
			return nil, err
		}
		c.retries.Inc()
		clock.SleepFor(c.clk, opts.Retry.backoff(attempt))
	}
}

// connect establishes one fresh session: dial, authenticate, and ask for
// trace and — unless disabled — mux in one HELLO exchange. With trace
// granted (by any tracing server) every request carries the caller's
// trace context and the server joins the caller's trace. Whatever the
// server declines stays in the legacy mode, so the client interoperates
// in both directions.
func (c *Client) connect(ctx context.Context) (*session.Client, error) {
	return session.Dial(ctx, c.addr, session.DialOptions{
		Credential:  c.cred,
		Trust:       c.trust,
		Clock:       c.clk,
		DialTimeout: c.opts.DialTimeout,
		Timeout:     c.opts.RequestTimeout,
		Trace:       true,
		Mux:         !c.opts.DisableMux,
	})
}

// callCtx bounds one exchange by RequestTimeout. Without one the caller's
// context is the bound, used as it is: wrapping it would only give the
// wire layer a cancellation to watch on every frame.
func (c *Client) callCtx(parent context.Context) (context.Context, context.CancelFunc) {
	if c.opts.RequestTimeout > 0 {
		return context.WithTimeout(parent, c.opts.RequestTimeout)
	}
	return parent, func() {}
}

// Server returns the authenticated server identity.
func (c *Client) Server() *gsi.Peer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peer
}

// Close closes the connection; requests after it fail.
func (c *Client) Close() error {
	c.mu.Lock()
	sess := c.sess
	c.sess, c.closed = nil, true
	c.mu.Unlock()
	if sess == nil {
		return nil
	}
	return sess.Close()
}

// current snapshots the live session (nil while disconnected).
func (c *Client) current() *session.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sess
}

// dropConn discards a session observed failing, unless a concurrent
// caller already replaced it.
func (c *Client) dropConn(old *session.Client) {
	old.Close()
	c.mu.Lock()
	if c.sess == old {
		c.sess = nil
	}
	c.mu.Unlock()
}

// reconnect establishes a session, under ctx, if none is live. One
// reconnect runs at a time, so concurrent callers that find the session
// gone share one dial instead of racing their own.
func (c *Client) reconnect(ctx context.Context) error {
	c.mu.Lock()
	live, closed := c.sess != nil, c.closed
	if !live && c.dialing == nil { // made on first need: a client that never re-dials allocates none
		c.dialing = make(chan struct{}, 1)
	}
	dialing := c.dialing
	c.mu.Unlock()
	if closed {
		return errClientClosed
	}
	if live {
		return nil
	}
	select {
	case dialing <- struct{}{}:
		defer func() { <-dialing }()
	case <-ctx.Done():
		return ctx.Err()
	}
	if c.current() != nil {
		return nil // another caller's reconnect won
	}
	sess, err := c.connect(ctx)
	if err != nil {
		return err
	}
	c.mu.Lock()
	closed = c.closed
	if !closed {
		c.sess, c.peer = sess, sess.Peer
	}
	c.mu.Unlock()
	if closed { // Close ran during the dial
		sess.Close()
		return errClientClosed
	}
	return nil
}

// call performs one request/response exchange. Idempotent requests (ping,
// query, status) are transparently retried under the retry policy when the
// transport fails: the connection is torn down, the backoff elapses on the
// client's clock, and a fresh connection is dialed and authenticated.
// Non-idempotent requests (submit, cancel, signal) are never retried once
// the request may have been sent.
func (c *Client) call(parent context.Context, req wire.Frame, idempotent bool) (wire.Frame, error) {
	attempts := 1
	if idempotent {
		attempts = c.opts.Retry.attempts()
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			c.retries.Inc()
			clock.SleepFor(c.clk, c.opts.Retry.backoff(attempt-1))
		}
		if err := c.reconnect(parent); err != nil {
			lastErr = err
			if !isTransient(err) || parent.Err() != nil {
				return wire.Frame{}, err
			}
			continue
		}
		sess := c.current()
		if sess == nil {
			lastErr = fmt.Errorf("infogram: connection closed")
			continue
		}
		ctx, cancel := c.callCtx(parent)
		resp, err := sess.Call(ctx, req)
		cancel()
		if err == nil {
			if resp.Verb == wire.VerbReject {
				// The server's admission control refused the request before
				// doing any work on it. This is a protocol answer, not a
				// transport failure: the connection stays up (dropping it
				// would force a fresh GSI handshake — the most expensive
				// thing a shedding server could be asked to do), and the
				// request is not retried here. The caller gets the scope
				// and backoff hint and decides; retrying immediately would
				// be precisely the hammering the REJECT asked to stop.
				rej, derr := wire.DecodeReject(resp)
				if derr != nil {
					return wire.Frame{}, derr
				}
				return wire.Frame{}, &RejectedError{
					Scope:      rej.Scope,
					RetryAfter: rej.RetryAfter,
					Reason:     rej.Reason,
				}
			}
			return resp, nil
		}
		lastErr = err
		if sess.Broken() {
			c.dropConn(sess)
		}
		if !idempotent || !isTransient(err) || parent.Err() != nil {
			return wire.Frame{}, err
		}
	}
	return wire.Frame{}, lastErr
}

// exchange is a Client's gram.Exchange: its call, with redial, retry of
// idempotent verbs, mux and *RejectedError. The pointer conversion hands
// the client to the verbs without an allocation.
type exchange Client

func (x *exchange) Call(ctx context.Context, req wire.Frame, idempotent bool) (wire.Frame, error) {
	return (*Client)(x).call(ctx, req, idempotent)
}

// isTransient classifies errors worth retrying: transport-level failures
// where the server never (or no longer) holds the request. Protocol-level
// rejections — authentication denials, server ERROR frames — are not
// transient.
func isTransient(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, faultinject.ErrInjected):
		return true
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return true
	case errors.Is(err, os.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return true
	case errors.Is(err, syscall.ECONNREFUSED), errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.EPIPE):
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// InfoResult is a decoded information response.
type InfoResult struct {
	Format  xrsl.Format
	Raw     string
	Entries []ldif.Entry
	// Degraded reports that the server answered partially because one or
	// more providers failed or timed out; the reply carries a
	// status=degraded entry naming the missing keywords.
	Degraded bool
}

// QueryRaw sends raw xRSL expected to be an information query. Queries
// are read-only and therefore retried under the retry policy.
func (c *Client) QueryRaw(xrslSrc string) (InfoResult, error) {
	return c.QueryRawContext(context.Background(), xrslSrc)
}

// QueryRawContext is QueryRaw carrying the caller's context.
func (c *Client) QueryRawContext(ctx context.Context, xrslSrc string) (InfoResult, error) {
	resp, err := c.call(ctx, wire.Frame{Verb: gram.VerbSubmit, Payload: []byte(xrslSrc)}, true)
	if err != nil {
		return InfoResult{}, err
	}
	return decodeInfoFrame(resp)
}

// entriesDegraded detects the status entry a degraded partial reply
// carries.
func entriesDegraded(entries []ldif.Entry) bool {
	for _, e := range entries {
		for _, a := range e.Attrs {
			if strings.EqualFold(a.Name, "objectclass") && a.Value == DegradedObjectClass {
				return true
			}
		}
	}
	return false
}

func decodeInfoFrame(resp wire.Frame) (InfoResult, error) {
	var format xrsl.Format
	var unmarshal func(string) ([]ldif.Entry, error)
	switch resp.Verb {
	case VerbResultLDIF:
		format, unmarshal = xrsl.FormatLDIF, ldif.Unmarshal
	case VerbResultXML:
		format, unmarshal = xrsl.FormatXML, xmlenc.Unmarshal
	case VerbResultDSML:
		format, unmarshal = xrsl.FormatDSML, xmlenc.UnmarshalDSML
	case gram.VerbSubmitted:
		return InfoResult{}, fmt.Errorf("infogram: specification was a job submission; use Submit")
	default:
		return InfoResult{}, gram.ServerError(resp)
	}
	// One copy of the payload serves both the decode and Raw.
	raw := string(resp.Payload)
	entries, err := unmarshal(raw)
	if err != nil {
		return InfoResult{}, err
	}
	return InfoResult{
		Format:   format,
		Raw:      raw,
		Entries:  entries,
		Degraded: entriesDegraded(entries),
	}, nil
}

// Query sends a typed information request.
func (c *Client) Query(req xrsl.InfoRequest) (InfoResult, error) {
	return c.QueryRaw(req.Encode())
}

// Schema fetches the service reflection schema (§6.4).
func (c *Client) Schema() ([]ldif.Entry, error) {
	res, err := c.Query(xrsl.InfoRequest{Schema: true})
	if err != nil {
		return nil, err
	}
	return res.Entries, nil
}

// SubmitJob sends a typed job request and returns the contact.
func (c *Client) SubmitJob(req xrsl.JobRequest) (string, error) {
	return c.Submit(req.Encode())
}

// MultiPart is the client view of one multi-request part outcome.
type MultiPart struct {
	Kind     string
	Contact  string
	Info     *InfoResult
	Err      error
	Degraded bool
}

// SubmitMulti sends a multi-request (+) carrying any mix of jobs and info
// queries and decodes the per-part outcomes. Because a multi-request may
// contain job submissions, it is never retried.
func (c *Client) SubmitMulti(xrslSrc string) ([]MultiPart, error) {
	return c.SubmitMultiContext(context.Background(), xrslSrc)
}

// SubmitMultiContext is SubmitMulti carrying the caller's context.
func (c *Client) SubmitMultiContext(ctx context.Context, xrslSrc string) ([]MultiPart, error) {
	resp, err := c.call(ctx, wire.Frame{Verb: gram.VerbSubmit, Payload: []byte(xrslSrc)}, false)
	if err != nil {
		return nil, err
	}
	if resp.Verb != VerbMulti {
		// A multi-request with a single component answers directly.
		switch resp.Verb {
		case gram.VerbSubmitted:
			return []MultiPart{{Kind: "job", Contact: string(resp.Payload)}}, nil
		case VerbResultLDIF, VerbResultXML, VerbResultDSML:
			res, err := decodeInfoFrame(resp)
			if err != nil {
				return nil, err
			}
			return []MultiPart{{Kind: "info", Info: &res, Degraded: res.Degraded}}, nil
		default:
			return nil, gram.ServerError(resp)
		}
	}
	var parts []PartResult
	if err := json.Unmarshal(resp.Payload, &parts); err != nil {
		return nil, fmt.Errorf("infogram: decode multi response: %w", err)
	}
	out := make([]MultiPart, 0, len(parts))
	for _, p := range parts {
		mp := MultiPart{Kind: p.Kind, Contact: p.Contact, Degraded: p.Degraded}
		switch p.Kind {
		case "info":
			format := xrsl.Format(p.Format)
			var entries []ldif.Entry
			var derr error
			switch format {
			case xrsl.FormatXML:
				entries, derr = xmlenc.Unmarshal(p.Body)
			case xrsl.FormatDSML:
				entries, derr = xmlenc.UnmarshalDSML(p.Body)
			default:
				entries, derr = ldif.Unmarshal(p.Body)
			}
			if derr != nil {
				mp.Err = derr
			} else {
				mp.Info = &InfoResult{Format: format, Raw: p.Body, Entries: entries, Degraded: p.Degraded}
			}
		case "error":
			mp.Err = fmt.Errorf("infogram: %s", p.Error)
		}
		out = append(out, mp)
	}
	return out, nil
}

// ForwardContext relays one already-formed request frame and returns the
// raw response frame, without interpreting either side. This is the
// cluster proxy's primitive: the proxy terminates its own client's GSI
// session, picks the owning backend, and relays the inner frame verbatim
// — queries, submissions, status polls — so backends see exactly the
// frames a direct client would send. idempotent gates the retry policy
// exactly as the typed methods do (never retry a SUBMIT that may have
// been sent). A REJECT from the backend is returned as a frame, not an
// error: the proxy relays the backend's admission decision to the origin
// client untouched.
func (c *Client) ForwardContext(ctx context.Context, req wire.Frame, idempotent bool) (wire.Frame, error) {
	resp, err := c.call(ctx, req, idempotent)
	if err != nil {
		var rej *RejectedError
		if errors.As(err, &rej) {
			return wire.EncodeReject(wire.Reject{
				RetryAfter: rej.RetryAfter,
				Scope:      rej.Scope,
				Reason:     rej.Reason,
			}), nil
		}
		return wire.Frame{}, err
	}
	return resp, nil
}

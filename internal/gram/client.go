// The client side of GRAMP: the job verbs, written once in Verbs over an
// Exchange, and Client, the baseline GRAM client that runs them over one
// authenticated connection. core.Client runs the same Verbs over its own
// connection policy (redial, retry of idempotent verbs, mux), so the
// verbs behave alike under both.

package gram

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"infogram/internal/gsi"
	"infogram/internal/job"
	"infogram/internal/session"
	"infogram/internal/wire"
)

// Exchange performs one request/response round trip with a job endpoint.
// idempotent says whether the request may be sent again after a transport
// failure (PING and STATUS may; SUBMIT, CANCEL and SIGNAL never are); an
// Exchange that never retries ignores it.
type Exchange interface {
	Call(ctx context.Context, req wire.Frame, idempotent bool) (wire.Frame, error)
}

// Verbs are GRAMP's job verbs over an Exchange: the one implementation of
// the request frames, the reply checks, the ERROR conversion, the STATUS
// decode and the WaitTerminal poll. A client embeds them; what differs
// between clients is only the Exchange, its connection policy.
type Verbs struct{ x Exchange }

// NewVerbs returns the job verbs over x. A pointer-typed x fits the
// interface as it is, so this costs no allocation.
func NewVerbs(x Exchange) Verbs { return Verbs{x} }

// ServerError converts an ERROR frame to an error; an expired contact
// keeps errors.Is(err, job.ErrExpired).
func ServerError(f wire.Frame) error {
	return job.RemoteError("gram: server error: ", strings.TrimSpace(string(f.Payload)))
}

// expect performs one exchange and returns the reply if its verb is want.
// An ERROR becomes the server's error; any other reply is a misuse, such
// as a SUBMIT of a specification an InfoGram service answers as an
// information query, and the error names the verbs involved.
func (v Verbs) expect(ctx context.Context, verb, payload, want string, idempotent bool) (wire.Frame, error) {
	resp, err := v.x.Call(ctx, wire.Frame{Verb: verb, Payload: []byte(payload)}, idempotent)
	switch {
	case err != nil:
		return wire.Frame{}, err
	case resp.Verb == want:
		return resp, nil
	case resp.Verb == VerbError:
		return wire.Frame{}, ServerError(resp)
	}
	return wire.Frame{}, fmt.Errorf("gram: %s answered %s, not %s", verb, resp.Verb, want)
}

// Ping checks service liveness.
func (v Verbs) Ping() error { return v.PingContext(context.Background()) }

// PingContext is Ping carrying the caller's context (and, on a traced
// connection, its trace context). A ping may be retried.
func (v Verbs) PingContext(ctx context.Context) error {
	_, err := v.expect(ctx, VerbPing, "", VerbPong, true)
	return err
}

// Submit sends a job specification and returns the job contact.
// Submissions are never retried: a transport failure after the request
// was sent leaves the job's fate unknown, and replaying could run it
// twice.
func (v Verbs) Submit(src string) (string, error) {
	return v.SubmitContext(context.Background(), src)
}

// SubmitContext is Submit carrying the caller's context.
func (v Verbs) SubmitContext(ctx context.Context, src string) (string, error) {
	resp, err := v.expect(ctx, VerbSubmit, src, VerbSubmitted, false)
	if err != nil {
		return "", err
	}
	return string(resp.Payload), nil
}

// Status polls a job by contact. Status reads may be retried.
func (v Verbs) Status(contact string) (StatusReply, error) {
	return v.StatusContext(context.Background(), contact)
}

// StatusContext is Status carrying the caller's context.
func (v Verbs) StatusContext(ctx context.Context, contact string) (StatusReply, error) {
	resp, err := v.expect(ctx, VerbStatus, contact, VerbStatusOK, true)
	if err != nil {
		return StatusReply{}, err
	}
	var reply StatusReply
	if err := json.Unmarshal(resp.Payload, &reply); err != nil {
		return StatusReply{}, fmt.Errorf("gram: decode status: %w", err)
	}
	return reply, nil
}

// Cancel cancels a job by contact.
func (v Verbs) Cancel(contact string) error { return v.CancelContext(context.Background(), contact) }

// CancelContext is Cancel carrying the caller's context.
func (v Verbs) CancelContext(ctx context.Context, contact string) error {
	_, err := v.expect(ctx, VerbCancel, contact, VerbCancelOK, false)
	return err
}

// Signal suspends or resumes a job ("suspend" / "resume").
func (v Verbs) Signal(contact, signal string) error {
	return v.SignalContext(context.Background(), contact, signal)
}

// SignalContext is Signal carrying the caller's context.
func (v Verbs) SignalContext(ctx context.Context, contact, signal string) error {
	_, err := v.expect(ctx, VerbSignal, contact+" "+signal, VerbSignalOK, false)
	return err
}

// WaitTerminal polls until the job reaches DONE or FAILED, with the given
// poll interval (the paper's polling alternative to event notification);
// each poll carries ctx. A finished job's result expires once
// job.KeepTerminal to 2·job.KeepTerminal later jobs have finished on the
// server: WaitTerminal then returns an error satisfying errors.Is(err,
// job.ErrExpired), and the server's audit log is the record of the job's
// outcome.
func (v Verbs) WaitTerminal(ctx context.Context, contact string, poll time.Duration) (StatusReply, error) {
	if poll <= 0 {
		poll = 10 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		st, err := v.StatusContext(ctx, contact)
		if err != nil {
			return StatusReply{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-ticker.C:
		}
	}
}

// Client speaks GRAMP to a GRAM (or InfoGram) job endpoint over one
// authenticated connection. It corresponds to the client tier of Figure 1:
// submit a job, poll its status through the job handle, cancel it, or
// receive event notifications through a callback listener. It is the
// baseline client: it asks for trace but not mux, never redials and never
// retries. A call ended by its context leaves the connection's framing
// unknown; discard the client afterwards.
type Client struct {
	Verbs
	sess *session.Client
}

// exchange is a Client's Exchange: one Call on its session, whatever the
// verb.
type exchange session.Client

func (x *exchange) Call(ctx context.Context, req wire.Frame, _ bool) (wire.Frame, error) {
	return (*session.Client)(x).Call(ctx, req)
}

// Dial connects and authenticates to a GRAM service at addr.
func Dial(addr string, cred *gsi.Credential, trust *gsi.TrustStore) (*Client, error) {
	// Trace propagation is offered; an old server declines with ERROR and
	// the client simply sends unprefixed frames. Each request then carries
	// its caller's trace context, or a freshly minted sampled one, so the
	// server records a span tree for it.
	sess, err := session.Dial(context.Background(), addr, session.DialOptions{
		Credential: cred,
		Trust:      trust,
		Trace:      true,
	})
	if err != nil {
		return nil, err
	}
	return &Client{Verbs: NewVerbs((*exchange)(sess)), sess: sess}, nil
}

// Server returns the authenticated server identity.
func (c *Client) Server() *gsi.Peer { return c.sess.Peer }

// Close closes the connection.
func (c *Client) Close() error { return c.sess.Close() }

// CallbackListener receives job event notifications pushed by the service,
// the event-notification path of Figure 1. Its contact address goes into
// the RSL callback tag.
type CallbackListener struct {
	server *wire.Server
	events chan job.Event
	addr   string
}

// NewCallbackListener starts a listener on an ephemeral port.
func NewCallbackListener() (*CallbackListener, error) {
	l := &CallbackListener{events: make(chan job.Event, 64)}
	l.server = wire.NewServer(wire.HandlerFunc(l.serve))
	addr, err := l.server.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l.addr = addr
	return l, nil
}

// Contact returns the address to put in the RSL callback tag.
func (l *CallbackListener) Contact() string { return l.addr }

// Events returns the stream of received events.
func (l *CallbackListener) Events() <-chan job.Event { return l.events }

// Close stops the listener.
func (l *CallbackListener) Close() error { return l.server.Close() }

func (l *CallbackListener) serve(c *wire.Conn) {
	for {
		f, err := c.Read()
		if err != nil {
			return
		}
		if f.Verb != VerbCallback {
			continue
		}
		var ev job.Event
		if err := json.Unmarshal(f.Payload, &ev); err != nil {
			continue
		}
		select {
		case l.events <- ev:
		default:
			// Drop rather than block the service's dialer.
		}
	}
}

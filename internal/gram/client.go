package gram

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"infogram/internal/clock"
	"infogram/internal/gsi"
	"infogram/internal/job"
	"infogram/internal/session"
	"infogram/internal/wire"
)

// Client speaks GRAMP to a GRAM (or InfoGram) job endpoint over one
// authenticated connection. It corresponds to the client tier of Figure 1:
// submit a job, poll its status through the job handle, cancel it, or
// receive event notifications through a callback listener.
type Client struct {
	sess    *session.Client
	timeout time.Duration
}

// Dial connects and authenticates to a GRAM service at addr.
func Dial(addr string, cred *gsi.Credential, trust *gsi.TrustStore) (*Client, error) {
	return DialClock(addr, cred, trust, clock.System)
}

// DialTimeout is Dial with a bound on connection establishment, the
// handshake, and every subsequent request/response exchange. Zero means
// unbounded.
func DialTimeout(addr string, cred *gsi.Credential, trust *gsi.TrustStore, timeout time.Duration) (*Client, error) {
	return dial(addr, cred, trust, clock.System, timeout)
}

// DialClock is Dial with an injected clock for tests.
func DialClock(addr string, cred *gsi.Credential, trust *gsi.TrustStore, clk clock.Clock) (*Client, error) {
	return dial(addr, cred, trust, clk, 0)
}

func dial(addr string, cred *gsi.Credential, trust *gsi.TrustStore, clk clock.Clock, timeout time.Duration) (*Client, error) {
	// Trace propagation is offered; an old server declines with ERROR and
	// the client simply sends unprefixed frames.
	sess, err := session.Dial(context.Background(), addr, session.DialOptions{
		Credential:  cred,
		Trust:       trust,
		Clock:       clk,
		DialTimeout: timeout,
		Timeout:     timeout,
		Trace:       true,
	})
	if err != nil {
		return nil, err
	}
	return &Client{sess: sess, timeout: timeout}, nil
}

// call performs one deadline-bounded request/response exchange. On a
// trace-negotiated connection each request carries a freshly minted,
// sampled trace context so the server records a span tree for it.
func (c *Client) call(req wire.Frame) (wire.Frame, error) {
	ctx := context.Background()
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	return c.sess.Call(ctx, req)
}

// Server returns the authenticated server identity.
func (c *Client) Server() *gsi.Peer { return c.sess.Peer }

// Close closes the connection.
func (c *Client) Close() error { return c.sess.Close() }

// errorReply converts an ERROR frame to an error.
func errorReply(f wire.Frame) error {
	return fmt.Errorf("gram: server error: %s", strings.TrimSpace(string(f.Payload)))
}

// Ping checks service liveness.
func (c *Client) Ping() error {
	resp, err := c.call(wire.Frame{Verb: VerbPing})
	if err != nil {
		return err
	}
	if resp.Verb != VerbPong {
		return errorReply(resp)
	}
	return nil
}

// Submit sends an RSL job specification and returns the job contact.
func (c *Client) Submit(rslSrc string) (string, error) {
	resp, err := c.call(wire.Frame{Verb: VerbSubmit, Payload: []byte(rslSrc)})
	if err != nil {
		return "", err
	}
	if resp.Verb != VerbSubmitted {
		return "", errorReply(resp)
	}
	return string(resp.Payload), nil
}

// Status polls a job by contact.
func (c *Client) Status(contact string) (StatusReply, error) {
	resp, err := c.call(wire.Frame{Verb: VerbStatus, Payload: []byte(contact)})
	if err != nil {
		return StatusReply{}, err
	}
	if resp.Verb != VerbStatusOK {
		return StatusReply{}, errorReply(resp)
	}
	var reply StatusReply
	if err := json.Unmarshal(resp.Payload, &reply); err != nil {
		return StatusReply{}, fmt.Errorf("gram: decode status: %w", err)
	}
	return reply, nil
}

// Cancel cancels a job by contact.
func (c *Client) Cancel(contact string) error {
	resp, err := c.call(wire.Frame{Verb: VerbCancel, Payload: []byte(contact)})
	if err != nil {
		return err
	}
	if resp.Verb != VerbCancelOK {
		return errorReply(resp)
	}
	return nil
}

// Signal suspends or resumes a job ("suspend" / "resume").
func (c *Client) Signal(contact, signal string) error {
	resp, err := c.call(wire.Frame{Verb: VerbSignal, Payload: []byte(contact + " " + signal)})
	if err != nil {
		return err
	}
	if resp.Verb != VerbSignalOK {
		return errorReply(resp)
	}
	return nil
}

// WaitTerminal polls until the job reaches DONE or FAILED, with the given
// poll interval (the paper's polling alternative to event notification).
func (c *Client) WaitTerminal(ctx context.Context, contact string, poll time.Duration) (StatusReply, error) {
	if poll <= 0 {
		poll = 10 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		st, err := c.Status(contact)
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

package mds

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"infogram/internal/clock"
	"infogram/internal/gsi"
	"infogram/internal/ldif"
	"infogram/internal/session"
	"infogram/internal/wire"
)

// Client speaks the MDS directory protocol to a GRIS or GIIS. Note that a
// Figure 2 client needs both this client and a gram.Client — two protocol
// implementations — where the Figure 4 InfoGram client needs one.
type Client struct {
	sess *session.Client
}

// Dial connects and authenticates to an MDS server.
func Dial(addr string, cred *gsi.Credential, trust *gsi.TrustStore) (*Client, error) {
	return DialClock(addr, cred, trust, clock.System)
}

// DialClock is Dial with an injected clock.
func DialClock(addr string, cred *gsi.Credential, trust *gsi.TrustStore, clk clock.Clock) (*Client, error) {
	return DialContext(context.Background(), addr, cred, trust, clk)
}

// DialContext is DialClock bounded by the context: the TCP connect, the
// GSI handshake, and nothing else. Subsequent calls carry their own
// contexts.
func DialContext(ctx context.Context, addr string, cred *gsi.Credential, trust *gsi.TrustStore, clk clock.Clock) (*Client, error) {
	// No capability is offered: the directory protocol's client is the
	// baseline's, byte for byte.
	sess, err := session.Dial(ctx, addr, session.DialOptions{Credential: cred, Trust: trust, Clock: clk})
	if err != nil {
		return nil, err
	}
	return &Client{sess: sess}, nil
}

// Server returns the authenticated server identity.
func (c *Client) Server() *gsi.Peer { return c.sess.Peer }

// Close closes the connection.
func (c *Client) Close() error { return c.sess.Close() }

// Search performs one search and decodes the LDIF result.
func (c *Client) Search(req SearchRequest) ([]ldif.Entry, error) {
	return c.SearchContext(context.Background(), req)
}

// SearchContext is Search bounded by the context's deadline and
// cancellation. Cancellation mid-call leaves the connection's framing in
// an unknown state; callers should discard the client afterwards.
func (c *Client) SearchContext(ctx context.Context, req SearchRequest) ([]ldif.Entry, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("mds: encode search: %w", err)
	}
	resp, err := c.sess.Call(ctx, wire.Frame{Verb: VerbSearch, Payload: payload})
	if err != nil {
		return nil, err
	}
	if resp.Verb != VerbResult {
		return nil, fmt.Errorf("mds: server error: %s", strings.TrimSpace(string(resp.Payload)))
	}
	return ldif.Unmarshal(string(resp.Payload))
}

// RegisterWith registers a GRIS address with a GIIS.
func (c *Client) RegisterWith(grisAddr string) error {
	resp, err := c.sess.Call(context.Background(), wire.Frame{Verb: VerbRegister, Payload: []byte(grisAddr)})
	if err != nil {
		return err
	}
	if resp.Verb != VerbRegOK {
		return fmt.Errorf("mds: registration failed: %s", strings.TrimSpace(string(resp.Payload)))
	}
	return nil
}

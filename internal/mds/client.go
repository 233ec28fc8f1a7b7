package mds

import (
	"context"
	"fmt"
	"strings"

	"infogram/internal/clock"
	"infogram/internal/gsi"
	"infogram/internal/ldif"
	"infogram/internal/session"
	"infogram/internal/wire"
	"infogram/internal/zerocopy"
)

// Client speaks the MDS directory protocol to a GRIS or GIIS. Note that a
// Figure 2 client needs both this client and a gram.Client — two protocol
// implementations — where the Figure 4 InfoGram client needs one.
type Client struct {
	sess *session.Client
}

// Dial connects and authenticates to an MDS server.
func Dial(addr string, cred *gsi.Credential, trust *gsi.TrustStore) (*Client, error) {
	return DialContext(context.Background(), addr, cred, trust, clock.System)
}

// DialContext is Dial with an injected clock, bounded by ctx: the TCP
// connect and the GSI handshake, nothing else. Subsequent calls carry
// their own contexts.
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
	body, err := c.SearchLDIFContext(ctx, req)
	if err != nil {
		return nil, err
	}
	// zerocopy: the body is this call's own frame allocation, and nothing
	// writes to it.
	return ldif.Unmarshal(zerocopy.String(body))
}

// SearchLDIFContext is SearchContext without the decode: it returns the
// reply's LDIF body as received. The body is a fresh allocation that the
// caller owns.
func (c *Client) SearchLDIFContext(ctx context.Context, req SearchRequest) ([]byte, error) {
	return c.searchLDIF(ctx, appendSearchRequest(nil, &req))
}

// searchLDIF sends an encoded SearchRequest, which it only reads.
func (c *Client) searchLDIF(ctx context.Context, payload []byte) ([]byte, error) {
	return c.call(ctx, wire.Frame{Verb: VerbSearch, Payload: payload}, VerbResult)
}

// ping checks that the server still answers on this connection.
func (c *Client) ping(ctx context.Context) error {
	_, err := c.call(ctx, wire.Frame{Verb: VerbPing}, VerbPong)
	return err
}

// RegisterWith registers a GRIS address with a GIIS.
func (c *Client) RegisterWith(grisAddr string) error {
	_, err := c.call(context.Background(), wire.Frame{Verb: VerbRegister, Payload: []byte(grisAddr)}, VerbRegOK)
	return err
}

// call sends req and returns the reply's payload; a reply of any verb
// but want is the server's error.
func (c *Client) call(ctx context.Context, req wire.Frame, want string) ([]byte, error) {
	resp, err := c.sess.Call(ctx, req)
	if err != nil {
		return nil, err
	}
	if resp.Verb != want {
		return nil, fmt.Errorf("mds: server error: %s", strings.TrimSpace(string(resp.Payload)))
	}
	return resp.Payload, nil
}

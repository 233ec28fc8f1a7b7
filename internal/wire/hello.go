package wire

import (
	"bytes"
	"context"
	"fmt"
)

// Capabilities are negotiated in one exchange after the GSI handshake. A
// client that wants any sends a HELLO frame naming them as space-separated
// tokens; the server answers HELLO-OK naming the subset it granted, in the
// same syntax, and every granted capability takes effect with the next
// frame:
//
//	HELLO SP LEN LF trace SP mux
//	HELLO-OK SP LEN LF trace SP mux
//
// Unknown tokens are ignored, so a later capability needs no new verb. A
// client that wants nothing sends nothing, and its bytes on the wire are
// the seed protocol's. Version skew needs no second code path: an older
// server answers HELLO with its unknown-verb ERROR, which the client takes
// as "nothing granted", and an older client's own offer reaches a newer
// server's handler as an unknown verb and is declined the same way.
const (
	// VerbHello asks for capabilities (client → server, after handshake).
	VerbHello = "HELLO"
	// VerbHelloOK lists the capabilities granted; it may be empty.
	VerbHelloOK = "HELLO-OK"
)

// Caps is a set of negotiable capabilities.
type Caps uint8

const (
	// CapTrace prefixes every request frame with the caller's trace
	// context (trace.go).
	CapTrace Caps = 1 << iota
	// CapMux prefixes every frame, both directions, with a correlation ID
	// (mux.go).
	CapMux
	// CapRepl turns the connection into the leader's one-way journal
	// record stream (repl.go). It excludes CapMux.
	CapRepl
)

// capTokens are the wire tokens of CapTrace, CapMux and CapRepl, in bit
// order.
var capTokens = [...]string{"trace", "mux", "repl"}

// capLists is the wire form of every Caps value, built once so that
// neither end allocates a payload per negotiation.
var capLists = func() (l [1 << len(capTokens)][]byte) {
	for c := range l {
		for i, tok := range capTokens {
			if c&(1<<i) == 0 {
				continue
			}
			if len(l[c]) > 0 {
				l[c] = append(l[c], ' ')
			}
			l[c] = append(l[c], tok...)
		}
	}
	return l
}()

// Tokens returns c's wire form: its tokens, space-separated. The slice is
// shared by every caller and must not be modified.
func (c Caps) Tokens() []byte { return capLists[c&(1<<len(capTokens)-1)] }

// ParseCaps reads a space-separated token list; unknown tokens are
// ignored.
func ParseCaps(p []byte) Caps {
	var c Caps
	for len(p) > 0 {
		tok := p
		if i := bytes.IndexByte(p, ' '); i >= 0 {
			tok, p = p[:i], p[i+1:]
		} else {
			p = nil
		}
		for i, name := range capTokens {
			if string(tok) == name {
				c |= 1 << i
			}
		}
	}
	return c
}

// Negotiate asks for want on a freshly authenticated client connection
// and returns what the server granted, never more than was asked. An
// empty want sends nothing. Any answer but HELLO-OK — an older server
// answers ERROR — grants nothing: a decline, not a failure. Transport
// errors are returned as errors.
func Negotiate(ctx context.Context, conn *Conn, want Caps) (Caps, error) {
	if want == 0 {
		return 0, nil
	}
	resp, err := conn.CallContext(ctx, Frame{Verb: VerbHello, Payload: want.Tokens()})
	if err != nil {
		return 0, fmt.Errorf("wire: capability negotiation: %w", err)
	}
	if resp.Verb != VerbHelloOK {
		return 0, nil
	}
	return ParseCaps(resp.Payload) & want, nil
}

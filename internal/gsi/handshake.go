package gsi

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"time"

	"infogram/internal/faultinject"
	"infogram/internal/wire"
)

// The mutual-authentication handshake runs before any protocol traffic on
// every authenticated connection (GRAM gatekeeper, MDS GRIS, InfoGram). It
// is a three-message challenge/response:
//
//	client → server  AUTH      {clientChain, clientNonce}
//	server → client  AUTH-OK   {serverChain, serverNonce, sig(clientNonce)}
//	client → server  AUTH-FIN  {sig(serverNonce)}
//
// Each side proves possession of its leaf private key by signing the
// peer's nonce; each side validates the peer chain against its trust
// store. The outcome on both sides is the peer's authenticated identity
// subject.

// Handshake frame verbs.
const (
	verbAuth    = "AUTH"
	verbAuthOK  = "AUTH-OK"
	verbAuthFin = "AUTH-FIN"
	verbAuthErr = "AUTH-ERR"
)

const nonceLen = 32

type authMsg struct {
	Chain Chain  `json:"chain"`
	Nonce []byte `json:"nonce"`
}

type authOKMsg struct {
	Chain Chain  `json:"chain"`
	Nonce []byte `json:"nonce"`
	Sig   []byte `json:"sig"` // over the client nonce
}

type authFinMsg struct {
	Sig []byte `json:"sig"` // over the server nonce
}

// Peer describes the authenticated remote end of a connection.
type Peer struct {
	// Subject is the leaf subject (possibly a proxy DN).
	Subject string
	// Identity is the subject with proxy components stripped; gridmap and
	// authorization decisions use this.
	Identity string
}

func newNonce() ([]byte, error) {
	n := make([]byte, nonceLen)
	if _, err := rand.Read(n); err != nil {
		return nil, fmt.Errorf("gsi: nonce: %w", err)
	}
	return n, nil
}

// ClientHandshake authenticates conn from the client side using cred,
// verifying the server against trust. It returns the server's identity.
func ClientHandshake(conn *wire.Conn, cred *Credential, trust *TrustStore, now time.Time) (*Peer, error) {
	return ClientHandshakeContext(context.Background(), conn, cred, trust, now)
}

// ClientHandshakeContext is ClientHandshake with the handshake's frame
// exchange bounded by the context's deadline and cancellation.
func ClientHandshakeContext(ctx context.Context, conn *wire.Conn, cred *Credential, trust *TrustStore, now time.Time) (*Peer, error) {
	if _, err := faultinject.Eval(ctx, faultinject.GSIHandshake); err != nil {
		return nil, fmt.Errorf("gsi: handshake: %w", err)
	}
	nonce, err := newNonce()
	if err != nil {
		return nil, err
	}
	req, err := json.Marshal(authMsg{Chain: cred.Chain, Nonce: nonce})
	if err != nil {
		return nil, fmt.Errorf("gsi: encode auth: %w", err)
	}
	resp, err := conn.CallContext(ctx, wire.Frame{Verb: verbAuth, Payload: req})
	if err != nil {
		return nil, fmt.Errorf("gsi: handshake: %w", err)
	}
	switch resp.Verb {
	case verbAuthOK:
	case verbAuthErr:
		return nil, fmt.Errorf("gsi: server rejected authentication: %s", resp.Payload)
	default:
		return nil, fmt.Errorf("gsi: unexpected handshake frame %s", resp.Verb)
	}
	var ok authOKMsg
	if err := json.Unmarshal(resp.Payload, &ok); err != nil {
		return nil, fmt.Errorf("gsi: decode auth-ok: %w", err)
	}
	if err := trust.VerifyChain(ok.Chain, now); err != nil {
		return nil, fmt.Errorf("gsi: server chain: %w", err)
	}
	leaf, err := ok.Chain.Leaf()
	if err != nil {
		return nil, err
	}
	if !ed25519.Verify(leaf.PublicKey, nonce, ok.Sig) {
		return nil, fmt.Errorf("gsi: server failed proof of possession")
	}
	fin, err := json.Marshal(authFinMsg{Sig: ed25519.Sign(cred.Key, ok.Nonce)})
	if err != nil {
		return nil, fmt.Errorf("gsi: encode auth-fin: %w", err)
	}
	if err := conn.WriteContext(ctx, wire.Frame{Verb: verbAuthFin, Payload: fin}); err != nil {
		return nil, fmt.Errorf("gsi: send auth-fin: %w", err)
	}
	return &Peer{Subject: leaf.Subject, Identity: IdentitySubject(leaf.Subject)}, nil
}

// ServerHandshake authenticates conn from the server side. The first frame
// must already have been read by the caller if desired; here we read it
// ourselves. On failure an AUTH-ERR frame is sent before returning.
func ServerHandshake(conn *wire.Conn, cred *Credential, trust *TrustStore, now time.Time) (*Peer, error) {
	return ServerHandshakeContext(context.Background(), conn, cred, trust, now)
}

// ServerHandshakeContext is ServerHandshake with the handshake's frame
// exchange bounded by the context's deadline and cancellation.
func ServerHandshakeContext(ctx context.Context, conn *wire.Conn, cred *Credential, trust *TrustStore, now time.Time) (*Peer, error) {
	if _, err := faultinject.Eval(ctx, faultinject.GSIHandshake); err != nil {
		return nil, fmt.Errorf("gsi: handshake: %w", err)
	}
	first, err := conn.ReadContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("gsi: read auth: %w", err)
	}
	return serverHandshakeFrame(ctx, conn, first, cred, trust, now)
}

// serverHandshakeFrame completes the server side of the handshake once
// the initial frame has been read from conn.
func serverHandshakeFrame(ctx context.Context, conn *wire.Conn, first wire.Frame, cred *Credential, trust *TrustStore, now time.Time) (*Peer, error) {
	fail := func(format string, args ...any) (*Peer, error) {
		msg := fmt.Sprintf(format, args...)
		_ = conn.WriteString(verbAuthErr, msg)
		return nil, fmt.Errorf("gsi: %s", msg)
	}
	// failErr keeps cause in the returned error chain (errors.Is still
	// works, e.g. for ErrExpired) while sending the same flat message to
	// the peer.
	failErr := func(cause error, context string) (*Peer, error) {
		_ = conn.WriteString(verbAuthErr, fmt.Sprintf("%s: %v", context, cause))
		return nil, fmt.Errorf("gsi: %s: %w", context, cause)
	}
	if first.Verb != verbAuth {
		return fail("expected AUTH, got %s", first.Verb)
	}
	var req authMsg
	if err := json.Unmarshal(first.Payload, &req); err != nil {
		return fail("malformed AUTH payload: %v", err)
	}
	if len(req.Nonce) != nonceLen {
		return fail("bad nonce length %d", len(req.Nonce))
	}
	if err := trust.VerifyChain(req.Chain, now); err != nil {
		return failErr(err, "client chain rejected")
	}
	leaf, err := req.Chain.Leaf()
	if err != nil {
		return fail("empty chain")
	}
	nonce, err := newNonce()
	if err != nil {
		return nil, err
	}
	okPayload, err := json.Marshal(authOKMsg{
		Chain: cred.Chain,
		Nonce: nonce,
		Sig:   ed25519.Sign(cred.Key, req.Nonce),
	})
	if err != nil {
		return nil, fmt.Errorf("gsi: encode auth-ok: %w", err)
	}
	if err := conn.WriteContext(ctx, wire.Frame{Verb: verbAuthOK, Payload: okPayload}); err != nil {
		return nil, fmt.Errorf("gsi: send auth-ok: %w", err)
	}
	finFrame, err := conn.ReadContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("gsi: read auth-fin: %w", err)
	}
	if finFrame.Verb != verbAuthFin {
		return fail("expected AUTH-FIN, got %s", finFrame.Verb)
	}
	var fin authFinMsg
	if err := json.Unmarshal(finFrame.Payload, &fin); err != nil {
		return fail("malformed AUTH-FIN payload: %v", err)
	}
	if !ed25519.Verify(leaf.PublicKey, nonce, fin.Sig) {
		return fail("client failed proof of possession")
	}
	return &Peer{Subject: leaf.Subject, Identity: IdentitySubject(leaf.Subject)}, nil
}

package gsi

import (
	"context"
	"crypto/ed25519"
	"encoding/json"
	"net"
	"testing"
	"time"

	"infogram/internal/wire"
)

// decodeChain decodes raw as the chain field of a peer's AUTH, with the
// decoder the handshake runs.
func decodeChain(t testing.TB, raw []byte) (Chain, bool) {
	t.Helper()
	payload := append(append([]byte(`{"chain":`), raw...), `,"nonce":null}`...)
	m, err := decodeAuth(payload)
	if err != nil {
		return nil, false
	}
	return m.Chain, true
}

// Regression: peer-supplied chains with a null certificate, or with a
// public key of the wrong length, used to panic the verifier (a nil
// dereference, and ed25519.Verify's length check).
func TestVerifyChainRejectsMalformedCertificates(t *testing.T) {
	ca := newTestCA(t)
	trust := NewTrustStore(ca.Certificate())
	alice, _ := ca.IssueIdentity("/O=Grid/CN=alice", time.Hour, t0)
	noKey := *alice.Chain[0]
	noKey.PublicKey = nil
	leafOnly, err := json.Marshal(Chain{&noKey})
	if err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{
		"null certificate": []byte("[null]"),
		"keyless issuer":   []byte(`[{"issuer":"/O=Grid/CN=a","notAfter":"2002-07-27T00:00:00Z"},{"subject":"/O=Grid/CN=a"}]`),
		"keyless leaf":     leafOnly,
	} {
		ch, ok := decodeChain(t, raw)
		if !ok {
			t.Fatalf("%s: does not decode", name)
		}
		if err := trust.VerifyChain(ch, t0); err == nil {
			t.Errorf("%s: chain verified", name)
		}
	}
}

// Regression: AUTH-ERR was written with no deadline, so a peer that sent a
// bad AUTH and never read the reply held the server goroutine forever.
func TestServerHandshakeAuthErrBounded(t *testing.T) {
	ca := newTestCA(t)
	svc, _ := ca.IssueIdentity("/O=Grid/CN=service", time.Hour, t0)
	trust := NewTrustStore(ca.Certificate())
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		// Send a malformed AUTH, then never read.
		_ = wire.NewConn(b).Write(wire.Frame{Verb: verbAuth, Payload: []byte("not json")})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := ServerHandshakeContext(ctx, wire.NewConn(a), svc, trust, t0)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("malformed AUTH accepted")
		}
	case <-time.After(time.Second):
		t.Fatal("server handshake blocked on an unread AUTH-ERR")
	}
}

// FuzzVerifyChain feeds VerifyChain arbitrary peer-supplied chain bytes at
// arbitrary times. It must never panic, and a chain it accepts must carry
// a leaf key the handshake can verify a nonce signature with.
func FuzzVerifyChain(f *testing.F) {
	ca, err := NewCA("/O=Grid/CN=Fuzz CA", 24*time.Hour, t0)
	if err != nil {
		f.Fatal(err)
	}
	trust := NewTrustStore(ca.Certificate())
	alice, _ := ca.IssueIdentity("/O=Grid/CN=alice", time.Hour, t0)
	p1, _ := alice.Delegate(30*time.Minute, t0)
	p2, _ := p1.Delegate(20*time.Minute, t0)
	expired, _ := ca.IssueIdentity("/O=Grid/CN=old", time.Minute, t0.Add(-time.Hour))
	hour := int64(time.Hour / time.Second)
	for _, ch := range []Chain{alice.Chain, p2.Chain, expired.Chain} {
		raw, err := json.Marshal(ch)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, int64(0))
		f.Add(raw, 2*hour)
	}
	f.Add([]byte("[null]"), int64(0))
	f.Add([]byte(`[{"subject":1}]`), int64(0))
	f.Fuzz(func(t *testing.T, raw []byte, skewSeconds int64) {
		ch, ok := decodeChain(t, raw)
		if !ok {
			return
		}
		if trust.VerifyChain(ch, t0.Add(time.Duration(skewSeconds)*time.Second)) != nil {
			return
		}
		// Accepted: the handshake's proof of possession runs next.
		leaf, err := ch.Leaf()
		if err != nil {
			t.Fatalf("verified chain has no leaf: %v", err)
		}
		ed25519.Verify(leaf.PublicKey, []byte("nonce"), make([]byte, ed25519.SignatureSize))
	})
}

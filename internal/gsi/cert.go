// Package gsi simulates the Grid Security Infrastructure the paper relies
// on (§5.3, §7): certificate-based mutual authentication, proxy-credential
// delegation, gridmap files that map global Grid identities to local
// accounts, and authorization contracts such as "allow access to this
// resource from 3 to 4 pm to user X".
//
// The substitution (documented in DESIGN.md) replaces X.509/SSL with
// ed25519-signed certificates in a JSON encoding and a challenge/response
// handshake over the shared wire framing. The trust model is the same as
// GSI's: a certificate authority signs identity certificates; identities
// sign short-lived proxy certificates whose subject extends the identity
// subject; services verify the whole chain against their trusted CA roots
// and authorize on the *identity* subject.
package gsi

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"strings"
	"time"
)

// Certificate binds a subject distinguished name to a public key, signed by
// an issuer. Proxy certificates carry IsProxy and extend their issuer's
// subject with a "/CN=proxy" component, mirroring GSI proxy naming.
type Certificate struct {
	Serial    uint64            `json:"serial"`
	Subject   string            `json:"subject"`
	Issuer    string            `json:"issuer"`
	PublicKey ed25519.PublicKey `json:"publicKey"`
	NotBefore time.Time         `json:"notBefore"`
	NotAfter  time.Time         `json:"notAfter"`
	IsCA      bool              `json:"isCA,omitempty"`
	IsProxy   bool              `json:"isProxy,omitempty"`
	// MaxDelegationDepth limits how many further proxy levels may hang off
	// this certificate. Identity certificates default to a small positive
	// depth; each proxy must shrink it.
	MaxDelegationDepth int `json:"maxDelegationDepth"`
	// Signature is the issuer's signature over the canonical to-be-signed
	// encoding.
	Signature []byte `json:"signature"`
}

// appendTBS appends the canonical to-be-signed bytes to dst: the JSON
// encoding with the signature null.
func (c *Certificate) appendTBS(dst []byte) ([]byte, error) {
	b, err := appendCertificate(dst, c, nil)
	if err != nil {
		return nil, fmt.Errorf("gsi: encode certificate: %w", err)
	}
	return b, nil
}

// sign signs the certificate with the issuer's private key.
func (c *Certificate) sign(issuerKey ed25519.PrivateKey) error {
	b, err := c.appendTBS(nil)
	if err != nil {
		return err
	}
	c.Signature = ed25519.Sign(issuerKey, b)
	return nil
}

// checkSignature verifies the certificate against the issuer public key,
// appending the signed bytes to buf, which VerifyChain passes empty with
// room for them.
func (c *Certificate) checkSignature(issuerPub ed25519.PublicKey, buf []byte) error {
	if len(issuerPub) != ed25519.PublicKeySize {
		return fmt.Errorf("gsi: issuer of certificate %q has a malformed public key", c.Subject)
	}
	b, err := c.appendTBS(buf)
	if err != nil {
		return err
	}
	if !ed25519.Verify(issuerPub, b, c.Signature) {
		return fmt.Errorf("gsi: bad signature on certificate %q", c.Subject)
	}
	return nil
}

// ErrExpired marks a certificate (typically a short-lived proxy) whose
// validity window has closed. Callers classify authentication failures with
// errors.Is(err, ErrExpired) — expired proxies are an expected operational
// event worth counting separately from genuine credential problems.
var ErrExpired = errors.New("gsi: certificate expired")

// validAt checks the validity window.
func (c *Certificate) validAt(now time.Time) error {
	if now.Before(c.NotBefore) {
		return fmt.Errorf("gsi: certificate %q not yet valid (notBefore %s)", c.Subject, c.NotBefore.Format(time.RFC3339))
	}
	if now.After(c.NotAfter) {
		return fmt.Errorf("%w: %q at %s", ErrExpired, c.Subject, c.NotAfter.Format(time.RFC3339))
	}
	return nil
}

// proxySuffix is the subject component appended by each delegation level.
const proxySuffix = "/CN=proxy"

// IdentitySubject strips proxy components from a subject, yielding the
// underlying identity DN used by gridmaps and authorization.
func IdentitySubject(subject string) string {
	for strings.HasSuffix(subject, proxySuffix) {
		subject = strings.TrimSuffix(subject, proxySuffix)
	}
	return subject
}

// Chain is an ordered certificate chain, leaf first, ending at (but not
// including) a trusted CA root.
type Chain []*Certificate

// Leaf returns the end-entity certificate of the chain.
func (ch Chain) Leaf() (*Certificate, error) {
	if len(ch) == 0 {
		return nil, errors.New("gsi: empty certificate chain")
	}
	return ch[0], nil
}

// Identity returns the identity DN of the chain's leaf (proxy components
// stripped).
func (ch Chain) Identity() (string, error) {
	leaf, err := ch.Leaf()
	if err != nil {
		return "", err
	}
	return IdentitySubject(leaf.Subject), nil
}

// Credential is a certificate chain plus the private key for its leaf; it
// is what a client or service holds locally.
type Credential struct {
	Chain Chain
	Key   ed25519.PrivateKey
}

// Subject returns the leaf subject of the credential.
func (cr *Credential) Subject() string {
	if len(cr.Chain) == 0 {
		return ""
	}
	return cr.Chain[0].Subject
}

// Identity returns the identity DN of the credential.
func (cr *Credential) Identity() string { return IdentitySubject(cr.Subject()) }

// Delegate creates a proxy credential one level below cr, valid for
// lifetime. It fails when the parent's delegation budget is exhausted —
// the proxy-depth rule GSI enforces.
func (cr *Credential) Delegate(lifetime time.Duration, now time.Time) (*Credential, error) {
	parent, err := cr.Chain.Leaf()
	if err != nil {
		return nil, err
	}
	if parent.MaxDelegationDepth <= 0 {
		return nil, fmt.Errorf("gsi: %q has no delegation depth remaining", parent.Subject)
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("gsi: generate proxy key: %w", err)
	}
	notAfter := now.Add(lifetime)
	if notAfter.After(parent.NotAfter) {
		notAfter = parent.NotAfter // a proxy cannot outlive its parent
	}
	proxy := &Certificate{
		Serial:             newSerial(),
		Subject:            parent.Subject + proxySuffix,
		Issuer:             parent.Subject,
		PublicKey:          pub,
		NotBefore:          now.Add(-clockSkew),
		NotAfter:           notAfter,
		IsProxy:            true,
		MaxDelegationDepth: parent.MaxDelegationDepth - 1,
	}
	if err := proxy.sign(cr.Key); err != nil {
		return nil, err
	}
	chain := make(Chain, 0, len(cr.Chain)+1)
	chain = append(chain, proxy)
	chain = append(chain, cr.Chain...)
	return &Credential{Chain: chain, Key: priv}, nil
}

// clockSkew is the backdating tolerance applied to new certificates.
const clockSkew = 30 * time.Second

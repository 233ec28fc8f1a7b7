package gsi

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

var serialCounter atomic.Uint64

func newSerial() uint64 { return serialCounter.Add(1) }

// CA is a certificate authority: the trust anchor of a simulated grid. In
// the paper's production grids this is the Globus CA; here every test or
// deployment creates its own.
type CA struct {
	cert *Certificate
	key  ed25519.PrivateKey
}

// NewCA creates a self-signed CA with the given name, e.g.
// "/O=Grid/CN=Argonne CA", valid for the given lifetime from now.
func NewCA(name string, lifetime time.Duration, now time.Time) (*CA, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("gsi: generate CA key: %w", err)
	}
	cert := &Certificate{
		Serial:    newSerial(),
		Subject:   name,
		Issuer:    name,
		PublicKey: pub,
		NotBefore: now.Add(-clockSkew),
		NotAfter:  now.Add(lifetime),
		IsCA:      true,
	}
	if err := cert.sign(priv); err != nil {
		return nil, err
	}
	return &CA{cert: cert, key: priv}, nil
}

// Certificate returns the CA's self-signed certificate.
func (ca *CA) Certificate() *Certificate { return ca.cert }

// IssueIdentity issues an identity certificate for subject (a DN such as
// "/O=Grid/OU=ANL/CN=gregor"), valid for lifetime, with a default
// delegation budget.
func (ca *CA) IssueIdentity(subject string, lifetime time.Duration, now time.Time) (*Credential, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("gsi: generate identity key: %w", err)
	}
	cert := &Certificate{
		Serial:             newSerial(),
		Subject:            subject,
		Issuer:             ca.cert.Subject,
		PublicKey:          pub,
		NotBefore:          now.Add(-clockSkew),
		NotAfter:           now.Add(lifetime),
		MaxDelegationDepth: 8,
	}
	if err := cert.sign(ca.key); err != nil {
		return nil, err
	}
	return &Credential{Chain: Chain{cert}, Key: priv}, nil
}

// TrustStore holds the CA certificates a verifier trusts.
type TrustStore struct {
	mu    sync.RWMutex
	roots map[string]*Certificate // by subject
}

// NewTrustStore returns a store trusting the given roots.
func NewTrustStore(roots ...*Certificate) *TrustStore {
	ts := &TrustStore{roots: make(map[string]*Certificate)}
	for _, r := range roots {
		ts.AddRoot(r)
	}
	return ts
}

// AddRoot adds a trusted CA certificate.
func (ts *TrustStore) AddRoot(root *Certificate) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.roots[root.Subject] = root
}

// root returns the trusted root with the given subject.
func (ts *TrustStore) root(subject string) (*Certificate, bool) {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	r, ok := ts.roots[subject]
	return r, ok
}

// tbsScratch is the stack room VerifyChain encodes a certificate's signed
// bytes in; a longer encoding, of subjects far longer than usual, goes to
// the heap.
const tbsScratch = 512

// VerifyChain validates a leaf-first chain at time now: every link must be
// signed by its successor, validity windows must cover now, proxy subjects
// must extend their issuer's subject, delegation depths must decrease, and
// the final link must be signed by a trusted root.
func (ts *TrustStore) VerifyChain(ch Chain, now time.Time) error {
	if len(ch) == 0 {
		return fmt.Errorf("gsi: empty certificate chain")
	}
	var tbs [tbsScratch]byte // the signed bytes, encoded per link
	for i, cert := range ch {
		if cert == nil {
			return fmt.Errorf("gsi: null certificate in chain")
		}
		if len(cert.PublicKey) != ed25519.PublicKeySize {
			// The leaf's key verifies the handshake's nonce signature.
			return fmt.Errorf("gsi: certificate %q has a malformed public key", cert.Subject)
		}
		if err := cert.validAt(now); err != nil {
			return err
		}
		if i == len(ch)-1 {
			// Last chain element: must be issued by a trusted root.
			root, ok := ts.root(cert.Issuer)
			if !ok {
				return fmt.Errorf("gsi: issuer %q is not a trusted CA", cert.Issuer)
			}
			if err := root.validAt(now); err != nil {
				return err
			}
			if err := cert.checkSignature(root.PublicKey, tbs[:0]); err != nil {
				return err
			}
			if cert.IsProxy {
				return fmt.Errorf("gsi: proxy certificate %q issued directly by CA", cert.Subject)
			}
			continue
		}
		issuer := ch[i+1]
		if cert.Issuer != issuer.Subject {
			return fmt.Errorf("gsi: chain broken: %q issued by %q, next element is %q",
				cert.Subject, cert.Issuer, issuer.Subject)
		}
		if err := cert.checkSignature(issuer.PublicKey, tbs[:0]); err != nil {
			return err
		}
		if !cert.IsProxy {
			return fmt.Errorf("gsi: non-proxy certificate %q below chain head", cert.Subject)
		}
		if cert.Subject != issuer.Subject+proxySuffix {
			return fmt.Errorf("gsi: proxy subject %q does not extend issuer %q", cert.Subject, issuer.Subject)
		}
		if cert.MaxDelegationDepth >= issuer.MaxDelegationDepth {
			return fmt.Errorf("gsi: proxy %q does not shrink delegation depth", cert.Subject)
		}
		if cert.NotAfter.After(issuer.NotAfter) {
			return fmt.Errorf("gsi: proxy %q outlives its issuer", cert.Subject)
		}
	}
	return nil
}

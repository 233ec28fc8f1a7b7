package gsi

import (
	"encoding/json"
	"strconv"

	"infogram/internal/canonjson"
)

// The handshake's three messages and the certificates they carry are
// JSON, and every peer this repository ships writes them in one
// canonical shape: the bytes json.Marshal gives them. Both ends read and
// write that shape by hand, and the signed bytes of a certificate are
// that same encoding with the signature null. encoding/json stays the
// oracle (FuzzHandshakeCodec): the encoder's bytes are json.Marshal's, so
// certificates signed before and after verify alike, and any payload
// outside the shape goes to json.Unmarshal, so every peer accepted
// before is accepted now.

// appendCertificate appends c as json.Marshal encodes it, with sig in
// place of its signature. It fails, as json.Marshal does, on a validity
// time it cannot write.
func appendCertificate(dst []byte, c *Certificate, sig []byte) ([]byte, error) {
	dst = append(dst, `{"serial":`...)
	dst = strconv.AppendUint(dst, c.Serial, 10)
	dst = append(dst, `,"subject":`...)
	dst = canonjson.AppendString(dst, c.Subject)
	dst = append(dst, `,"issuer":`...)
	dst = canonjson.AppendString(dst, c.Issuer)
	dst = append(dst, `,"publicKey":`...)
	dst = canonjson.AppendBytes(dst, c.PublicKey)
	dst = append(dst, `,"notBefore":`...)
	dst, err := canonjson.AppendTime(dst, c.NotBefore)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"notAfter":`...)
	if dst, err = canonjson.AppendTime(dst, c.NotAfter); err != nil {
		return dst, err
	}
	if c.IsCA {
		dst = append(dst, `,"isCA":true`...)
	}
	if c.IsProxy {
		dst = append(dst, `,"isProxy":true`...)
	}
	dst = append(dst, `,"maxDelegationDepth":`...)
	dst = strconv.AppendInt(dst, int64(c.MaxDelegationDepth), 10)
	dst = append(dst, `,"signature":`...)
	dst = canonjson.AppendBytes(dst, sig)
	return append(dst, '}'), nil
}

// appendChain appends ch as json.Marshal encodes it.
func appendChain(dst []byte, ch Chain) ([]byte, error) {
	if ch == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, c := range ch {
		if i > 0 {
			dst = append(dst, ',')
		}
		if c == nil {
			dst = append(dst, "null"...)
			continue
		}
		var err error
		if dst, err = appendCertificate(dst, c, c.Signature); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// Room for a handshake message, so each is written into one allocation:
// a nonce or signature member takes under memberSize bytes, and a
// certificate with subjects of a usual length under certSize.
const (
	memberSize = 100
	certSize   = 448
)

// appendAuth appends m as json.Marshal encodes it.
func appendAuth(dst []byte, m *authMsg) ([]byte, error) {
	dst = append(dst, `{"chain":`...)
	dst, err := appendChain(dst, m.Chain)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"nonce":`...)
	dst = canonjson.AppendBytes(dst, m.Nonce)
	return append(dst, '}'), nil
}

// appendAuthOK appends m as json.Marshal encodes it.
func appendAuthOK(dst []byte, m *authOKMsg) ([]byte, error) {
	dst = append(dst, `{"chain":`...)
	dst, err := appendChain(dst, m.Chain)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"nonce":`...)
	dst = canonjson.AppendBytes(dst, m.Nonce)
	dst = append(dst, `,"sig":`...)
	dst = canonjson.AppendBytes(dst, m.Sig)
	return append(dst, '}'), nil
}

// appendAuthFin appends m as json.Marshal encodes it.
func appendAuthFin(dst []byte, m *authFinMsg) []byte {
	dst = append(dst, `{"sig":`...)
	dst = canonjson.AppendBytes(dst, m.Sig)
	return append(dst, '}')
}

// readCertificate reads one certificate in its canonical shape.
func readCertificate(r *canonjson.Reader) *Certificate {
	c := new(Certificate)
	r.Expect(`{"serial":`)
	c.Serial = r.Uint()
	r.Expect(`,"subject":`)
	c.Subject = r.Str()
	r.Expect(`,"issuer":`)
	c.Issuer = r.Str()
	r.Expect(`,"publicKey":`)
	c.PublicKey = r.Bytes()
	r.Expect(`,"notBefore":`)
	c.NotBefore = r.Time()
	r.Expect(`,"notAfter":`)
	c.NotAfter = r.Time()
	c.IsCA = r.Lit(`,"isCA":true`)
	c.IsProxy = r.Lit(`,"isProxy":true`)
	r.Expect(`,"maxDelegationDepth":`)
	c.MaxDelegationDepth = r.Int()
	r.Expect(`,"signature":`)
	c.Signature = r.Bytes()
	r.Expect("}")
	return c
}

// readChain reads a chain in its canonical shape: null, or a list of
// certificates without null elements.
func readChain(r *canonjson.Reader) Chain {
	if r.Lit("null") {
		return nil
	}
	r.Expect("[")
	ch := Chain{}
	if r.Lit("]") {
		return ch
	}
	for {
		ch = append(ch, readCertificate(r))
		if !r.Lit(",") {
			break
		}
	}
	r.Expect("]")
	return ch
}

// readAuth reads an AUTH payload in its canonical shape.
func readAuth(r *canonjson.Reader) authMsg {
	r.Expect(`{"chain":`)
	m := authMsg{Chain: readChain(r)}
	r.Expect(`,"nonce":`)
	m.Nonce = r.Bytes()
	r.Expect("}")
	return m
}

// readAuthOK reads an AUTH-OK payload in its canonical shape.
func readAuthOK(r *canonjson.Reader) authOKMsg {
	r.Expect(`{"chain":`)
	m := authOKMsg{Chain: readChain(r)}
	r.Expect(`,"nonce":`)
	m.Nonce = r.Bytes()
	r.Expect(`,"sig":`)
	m.Sig = r.Bytes()
	r.Expect("}")
	return m
}

// readAuthFin reads an AUTH-FIN payload in its canonical shape.
func readAuthFin(r *canonjson.Reader) authFinMsg {
	r.Expect(`{"sig":`)
	m := authFinMsg{Sig: r.Bytes()}
	r.Expect("}")
	return m
}

// decodeAuth decodes an AUTH payload. The canonical shape is read by
// hand; anything else (whitespace, other key case or order, unknown keys,
// null certificates, a \u escape of a surrogate) is json.Unmarshal's.
// Decoded strings alias payload, which must not change afterwards.
func decodeAuth(payload []byte) (authMsg, error) {
	r := canonjson.NewReader(payload)
	if m := readAuth(&r); r.Done() {
		return m, nil
	}
	return unmarshal[authMsg](payload)
}

// decodeAuthOK decodes an AUTH-OK payload as decodeAuth decodes AUTH.
func decodeAuthOK(payload []byte) (authOKMsg, error) {
	r := canonjson.NewReader(payload)
	if m := readAuthOK(&r); r.Done() {
		return m, nil
	}
	return unmarshal[authOKMsg](payload)
}

// decodeAuthFin decodes an AUTH-FIN payload as decodeAuth decodes AUTH.
func decodeAuthFin(payload []byte) (authFinMsg, error) {
	r := canonjson.NewReader(payload)
	if m := readAuthFin(&r); r.Done() {
		return m, nil
	}
	return unmarshal[authFinMsg](payload)
}

// unmarshal decodes a payload outside the canonical shape; only such a
// payload pays for the heap copy json.Unmarshal's pointer makes.
func unmarshal[T any](payload []byte) (T, error) {
	var m T
	err := json.Unmarshal(payload, &m)
	return m, err
}

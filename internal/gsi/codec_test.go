package gsi

import (
	"bytes"
	"encoding/json"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"infogram/internal/canonjson"
	"infogram/internal/wire"
)

// tbsJSON is the to-be-signed encoding as json.Marshal gives it: the
// oracle appendTBS is held to.
func tbsJSON(c *Certificate) ([]byte, error) {
	cp := *c
	cp.Signature = nil
	return json.Marshal(&cp)
}

// checkEncode holds the handshake encoders and appendTBS to json.Marshal
// on the messages that carry ch: the same bytes, or an error from both.
func checkEncode(t *testing.T, ch Chain, nonce, sig []byte) [][]byte {
	t.Helper()
	same := func(what string, got []byte, gerr error, v any) []byte {
		t.Helper()
		want, werr := json.Marshal(v)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: err = %v, encoding/json says %v", what, gerr, werr)
		}
		if gerr == nil && !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
		}
		return got
	}
	var out [][]byte
	auth := &authMsg{Chain: ch, Nonce: nonce}
	b, err := appendAuth(nil, auth)
	out = append(out, same("AUTH", b, err, auth))
	ok := &authOKMsg{Chain: ch, Nonce: nonce, Sig: sig}
	b, err = appendAuthOK(nil, ok)
	out = append(out, same("AUTH-OK", b, err, ok))
	fin := &authFinMsg{Sig: sig}
	out = append(out, same("AUTH-FIN", appendAuthFin(nil, fin), nil, fin))
	for _, c := range ch {
		if c == nil {
			continue
		}
		got, gerr := c.appendTBS(nil)
		want, werr := tbsJSON(c)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("tbs of %+v: err = %v, encoding/json says %v", c, gerr, werr)
		}
		if gerr == nil && !bytes.Equal(got, want) {
			t.Fatalf("tbs:\n got %s\nwant %s", got, want)
		}
	}
	return out
}

// checkDecode holds the three handshake decoders to json.Unmarshal on p:
// the same accept or reject, and the same value.
func checkDecode(t *testing.T, p []byte) {
	t.Helper()
	same := func(what string, got any, gerr error, want any) {
		t.Helper()
		werr := json.Unmarshal(p, want)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s %q: err = %v, encoding/json says %v", what, p, gerr, werr)
		}
		if gerr == nil && !reflect.DeepEqual(got, reflect.ValueOf(want).Elem().Interface()) {
			t.Fatalf("%s %q = %#v, encoding/json says %#v", what, p, got, want)
		}
	}
	auth, err := decodeAuth(p)
	same("AUTH", auth, err, new(authMsg))
	ok, err := decodeAuthOK(p)
	same("AUTH-OK", ok, err, new(authOKMsg))
	fin, err := decodeAuthFin(p)
	same("AUTH-FIN", fin, err, new(authFinMsg))
}

// inShape reports whether read takes p whole, that is, whether p decodes
// without encoding/json.
func inShape[T any](p []byte, read func(*canonjson.Reader) T) bool {
	r := canonjson.NewReader(p)
	read(&r)
	return r.Done()
}

// codecCerts are certificates at the edges of the encoding: escapes in
// subjects, zones, nil and empty byte fields, the zero time, and the
// validity times json.Marshal refuses.
func codecCerts(t *testing.T) []*Certificate {
	ca := newTestCA(t)
	alice, err := ca.IssueIdentity(`/O=Grid/OU=<R&D> "lab"/CN=Zoë`, time.Hour, t0)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := alice.Delegate(30*time.Minute, t0.In(time.FixedZone("IST", 5*3600+1800)))
	if err != nil {
		t.Fatal(err)
	}
	odd := *alice.Chain[0]
	odd.Subject = "ctl\x00\x1f\t\n\r\b\f\x7f \u2028\u2029 bad\xff\xfe utf8 \U0001F600"
	odd.PublicKey, odd.Signature = nil, []byte{}
	odd.NotBefore, odd.NotAfter = time.Time{}, time.Unix(0, 1).In(time.FixedZone("", -(23*3600+59*60)))
	odd.MaxDelegationDepth = -3
	odd.Serial = ^uint64(0)
	late := *alice.Chain[0]
	late.NotAfter = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	early := *alice.Chain[0]
	early.NotBefore = time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)
	wide := *alice.Chain[0]
	wide.NotAfter = t0.In(time.FixedZone("", 24*3600))
	return []*Certificate{ca.Certificate(), alice.Chain[0], proxy.Chain[0], &odd, &late, &early, &wide}
}

// The handshake messages and the signed bytes are json.Marshal's, for
// every certificate shape; a canonical message decodes without
// encoding/json, and to the value json.Unmarshal gives.
func TestHandshakeCodecMatchesEncodingJSON(t *testing.T) {
	certs := codecCerts(t)
	nonce := bytes.Repeat([]byte{0xfb}, nonceLen)
	sig := bytes.Repeat([]byte{0x3e}, 64)
	for i, c := range certs {
		_, werr := tbsJSON(c)
		for _, ch := range []Chain{{c}, {c, certs[0]}} {
			msgs := checkEncode(t, ch, nonce, sig)
			if werr != nil {
				continue // json.Marshal refuses the certificate; so did the encoders
			}
			for j, read := range []func([]byte) bool{
				func(p []byte) bool { return inShape(p, readAuth) },
				func(p []byte) bool { return inShape(p, readAuthOK) },
				func(p []byte) bool { return inShape(p, readAuthFin) },
			} {
				checkDecode(t, msgs[j])
				if !read(msgs[j]) {
					t.Errorf("cert %d: message %d decoded by encoding/json: %s", i, j, msgs[j])
				}
			}
		}
	}
	checkEncode(t, nil, nil, nil)
	checkEncode(t, Chain{}, []byte{}, []byte{})
	checkEncode(t, Chain{nil}, nonce, sig)
	for _, p := range []string{
		`{"chain":null,"nonce":null}`,
		`{"chain":[],"nonce":""}`,
		`{"chain":[null],"nonce":null}`,
		`{"sig":null}`,
		`{"sig":"AAAA"}`,
		`{"sig":"AAA"}`,
		`{"sig":"A\u0041AA"}`,
		`{"sig":"AA\nAA"}`,
		` {"sig":"AAAA"}`,
		`{"Sig":"AAAA"}`,
		`{"sig":"AAAA","extra":1}`,
		`{"chain":[{"serial":01}],"nonce":null}`,
		`{"chain":[{"serial":-1}],"nonce":null}`,
		`{"chain":[{"serial":18446744073709551616}],"nonce":null}`,
		`{"chain":[{"serial":1,"subject":"a","issuer":"b","publicKey":null,"notBefore":"2002-07-24T12:00:00Z","notAfter":"2002-07-24T12:00:00+00:00","maxDelegationDepth":9223372036854775808,"signature":null}],"nonce":null}`,
		`{"chain":[{"serial":1,"subject":"a","issuer":"b","publicKey":null,"notBefore":"2002-07-24T12:00:00Z","notAfter":"2002-07-24T12:00:00.000+02:00","isCA":true,"isProxy":true,"maxDelegationDepth":-0,"signature":null}],"nonce":null}`,
		`{"chain":[{"serial":1,"subject":"\ud800","issuer":"\u00e9\u00E9","publicKey":null,"notBefore":"2002-07-24T12:00:00Z","notAfter":"2002-07-24 12:00:00Z","maxDelegationDepth":0,"signature":null}],"nonce":null}`,
		`{"chain":[{"serial":1,"subject":"a","issuer":"b","publicKey":null,"notBefore":"2002-07-24T12:00:00Z","notAfter":"2002-07-24T12:00:00Z","isCA":false,"maxDelegationDepth":0,"signature":null}],"nonce":null}`,
	} {
		checkDecode(t, []byte(p))
	}
}

// FuzzHandshakeCodec holds the handshake codec to encoding/json in both
// directions: the encoders and appendTBS write json.Marshal's bytes, or
// fail where it fails, for a certificate built from the inputs, and the
// decoders accept and reject what json.Unmarshal does, with the same
// value, on those encodings and on payload.
func FuzzHandshakeCodec(f *testing.F) {
	ca, err := NewCA("/O=Grid/CN=Fuzz CA", 24*time.Hour, t0)
	if err != nil {
		f.Fatal(err)
	}
	alice, _ := ca.IssueIdentity("/O=Grid/CN=alice", time.Hour, t0)
	p1, _ := alice.Delegate(30*time.Minute, t0)
	msg, _ := json.Marshal(authOKMsg{Chain: p1.Chain, Nonce: make([]byte, nonceLen), Sig: make([]byte, 64)})
	f.Add(msg, "/O=Grid/CN=alice", "/O=Grid/CN=Fuzz CA", uint64(7), 8, t0.Unix(), int64(0), 0, uint8(0), []byte("key"))
	f.Add([]byte(`{"sig":null}`), "<&>\u2028\xff", "\"\\", uint64(0), -1, int64(-62135596800), int64(999999999), 19800, uint8(0xff), []byte{})
	f.Add([]byte(`{"chain":[null],"nonce":""}`), "", "", uint64(1)<<63, 0, int64(253402300800), int64(1), -86400, uint8(0x2a), []byte(nil))
	f.Fuzz(func(t *testing.T, payload []byte, subject, issuer string, serial uint64, depth int, sec, nsec int64, zone int, flags uint8, key []byte) {
		at := time.Unix(sec, nsec)
		switch flags & 3 {
		case 1:
			at = at.UTC()
		case 2:
			at = at.In(time.FixedZone("", zone))
		}
		c := &Certificate{
			Serial: serial, Subject: subject, Issuer: issuer, PublicKey: key,
			NotBefore: at, NotAfter: at.Add(time.Duration(zone) * time.Second),
			IsCA: flags&4 != 0, IsProxy: flags&8 != 0, MaxDelegationDepth: depth, Signature: payload,
		}
		if flags&16 != 0 {
			c.PublicKey, c.Signature = nil, nil
		}
		ch := Chain{c}
		switch {
		case flags&32 != 0:
			ch = append(ch, nil)
		case flags&64 != 0:
			ch = nil
		}
		for _, p := range checkEncode(t, ch, key, payload) {
			checkDecode(t, p)
		}
		checkDecode(t, payload)
	})
}

// The legacy fixture was written by SaveCertificate and SaveCredential
// before the handshake had its own codec: subjects with HTML characters,
// quotes, non-ASCII and U+2028, validity times in three zones with
// nanoseconds. Its chains must still verify, its signed bytes must be
// json.Marshal's, and a handshake between its credentials must succeed.
func TestLegacyCertificates(t *testing.T) {
	dir := filepath.Join("testdata", "legacy")
	root, err := LoadCertificate(filepath.Join(dir, "ca.json"))
	if err != nil {
		t.Fatal(err)
	}
	identity, err := LoadCredential(filepath.Join(dir, "identity.json"))
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := LoadCredential(filepath.Join(dir, "proxy2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(proxy.Chain) != 3 || len(identity.Chain) != 1 {
		t.Fatalf("fixture chains hold %d and %d certificates, want 3 and 1", len(proxy.Chain), len(identity.Chain))
	}
	trust := NewTrustStore(root)
	now := time.Date(2002, 7, 24, 13, 0, 0, 0, time.UTC)
	for _, cred := range []*Credential{identity, proxy} {
		if err := trust.VerifyChain(cred.Chain, now); err != nil {
			t.Errorf("%s: %v", cred.Subject(), err)
		}
	}
	for _, c := range append(Chain{root}, proxy.Chain...) {
		got, err := c.appendTBS(nil)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := tbsJSON(c); !bytes.Equal(got, want) {
			t.Errorf("tbs of %q:\n got %s\nwant %s", c.Subject, got, want)
		}
	}
	// The chain as a peer sends it decodes by hand, to the chain loaded,
	// and verifies.
	msg, err := appendAuth(nil, &authMsg{Chain: proxy.Chain, Nonce: make([]byte, nonceLen)})
	if err != nil {
		t.Fatal(err)
	}
	if !inShape(msg, readAuth) {
		t.Fatalf("legacy chain is outside the canonical shape: %s", msg)
	}
	checkDecode(t, msg)
	m, err := decodeAuth(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := trust.VerifyChain(m.Chain, now); err != nil {
		t.Errorf("decoded chain: %v", err)
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		_, err := ServerHandshake(wire.NewConn(b), identity, trust, now)
		done <- err
	}()
	peer, err := ClientHandshake(wire.NewConn(a), proxy, trust, now)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if peer.Identity != identity.Identity() {
		t.Errorf("client saw %q, want %q", peer.Identity, identity.Identity())
	}
}

// Allocation budgets of one handshake, both ends in process over
// net.Pipe, for each chain a client presents: the nonces, the three
// messages each way, the decoded chain and its verification, and the
// wire connections' buffers. Each is the count measured when it was set
// plus a small fixed slack; a change that lowers a count lowers its
// budget in the same commit.
const (
	budgetHandshakeIdentity = 48 // measured 45.1 (87.2 with encoding/json): an identity chain
	budgetHandshakeProxy2   = 57 // measured 54.1 (112.2 with encoding/json): a proxy-depth-2 chain
)

func TestHandshakeAllocations(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("allocation pins need the race detector off and a full run")
	}
	ca := newTestCA(t)
	trust := NewTrustStore(ca.Certificate())
	svc, _ := ca.IssueIdentity("/O=Grid/CN=service", time.Hour, t0)
	alice, _ := ca.IssueIdentity("/O=Grid/CN=alice", time.Hour, t0)
	p1, _ := alice.Delegate(30*time.Minute, t0)
	p2, err := p1.Delegate(20*time.Minute, t0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		cred   *Credential
		budget float64
	}{
		{"identity", alice, budgetHandshakeIdentity},
		{"proxy-depth-2", p2, budgetHandshakeProxy2},
	} {
		done := make(chan error, 1)
		handshake := func() {
			a, b := net.Pipe()
			go func() {
				_, err := ServerHandshake(wire.NewConn(b), svc, trust, t0)
				done <- err
			}()
			if _, err := ClientHandshake(wire.NewConn(a), c.cred, trust, t0); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			a.Close()
			b.Close()
		}
		got := allocsPer(handshake)
		t.Logf("handshake, %s chain: %.1f allocations", c.name, got)
		if got > c.budget {
			t.Errorf("handshake, %s chain: %.1f allocations, budget %.0f", c.name, got, c.budget)
		}
	}
}

// allocsPer counts the allocations of op after a warm-up past every
// first-use allocation, on one P, without rounding down, and counting
// every goroutine: the server end included.
func allocsPer(op func()) float64 {
	for i := 0; i < 50; i++ {
		op()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

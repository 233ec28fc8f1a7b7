package wire

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

// FuzzFrameRoundTrip guards the encode→decode path: anything WriteFrame
// accepts must read back identically. Rejections (bad verbs, oversized
// payloads) are fine; panics and corruption are not.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add("SUBMIT", []byte("(executable=/bin/date)(arguments=-u)"))
	f.Add("PING", []byte{})
	f.Add("RESULT-LDIF", []byte("dn: kw=Date, resource=host, o=grid\nkw: Date\n"))
	f.Add("AUTH", []byte(`{"chain":[],"nonce":"AAAA"}`))
	f.Add("A", []byte{0, 1, 2, 255})
	f.Add("VERB_WITH_UNDERSCORE", []byte("x"))
	f.Add("lower", []byte("rejected verb"))
	f.Add("", []byte("empty verb"))
	f.Fuzz(func(t *testing.T, verb string, payload []byte) {
		fr := Frame{Verb: verb, Payload: payload}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			return // rejection is fine; panics are not
		}
		got, err := ReadFrame(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("wrote ok but read failed: verb=%q payload=%d bytes: %v", verb, len(payload), err)
		}
		if got.Verb != verb || !bytes.Equal(got.Payload, payload) {
			t.Fatalf("round trip corrupted: wrote %q/%q, read %q/%q", verb, payload, got.Verb, got.Payload)
		}
	})
}

// FuzzFrameDecode feeds arbitrary bytes — truncated frames, oversized
// lengths, garbage headers, realistic protocol traces — to the decoder.
// Every successfully decoded frame must satisfy the protocol bounds and
// re-encode cleanly.
func FuzzFrameDecode(f *testing.F) {
	// Realistic traces: an InfoGram handshake opener, a query, a job
	// submission, and a GRAMP status poll, back to back.
	f.Add([]byte("AUTH 27\n{\"chain\":[],\"nonce\":\"AAAA\"}SUBMIT 10\n(info=all)"))
	f.Add([]byte("SUBMIT 34\n(executable=/bin/date)(count=2)\nPING 0\n"))
	f.Add([]byte("STATUS 26\nhttps://host:2119/1/123456"))
	// Truncated payload: header promises more than follows.
	f.Add([]byte("RESULT-LDIF 500\ndn: o=grid\n"))
	// Oversized length.
	f.Add([]byte("BIG 99999999999999999999\n"))
	f.Add([]byte("BIG 16777217\n"))
	// Garbage.
	f.Add([]byte("\x00\x01\x02\n\n\n"))
	f.Add([]byte("VERB\n"))
	f.Add([]byte("VERB -3\nxyz"))
	f.Add([]byte(" 3\nabc"))
	f.Add([]byte(""))
	f.Add([]byte("VERB \n")) // empty length
	// A verb of exactly maxVerbLen bytes, and one byte over.
	f.Add([]byte(strings.Repeat("V", maxVerbLen) + " 1\nx"))
	f.Add([]byte(strings.Repeat("V", maxVerbLen+1) + " 1\nx"))
	// A header longer than the reader's buffer.
	f.Add([]byte("VERB " + strings.Repeat("1", 5000) + "\n"))
	// A known (interned) verb next to an unknown one.
	f.Add([]byte("SEARCH 2\n{}SEARCHX 2\n{}RESULT 0\n"))
	// CRLF line ends.
	f.Add([]byte("PING 0\r\nPONG 0\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 16; i++ {
			fr, err := ReadFrame(r)
			if err != nil {
				return // any error ends the stream; panics are the bug
			}
			if len(fr.Payload) > MaxPayload {
				t.Fatalf("decoder accepted %d-byte payload beyond MaxPayload", len(fr.Payload))
			}
			var buf bytes.Buffer
			if err := WriteFrame(&buf, fr); err != nil {
				t.Fatalf("decoded frame does not re-encode: %v (frame %s)", err, fr)
			}
			got, err := ReadFrame(bufio.NewReader(&buf))
			if err != nil || got.Verb != fr.Verb || !bytes.Equal(got.Payload, fr.Payload) {
				t.Fatalf("re-encoded frame does not round-trip: %v", err)
			}
		}
	})
}

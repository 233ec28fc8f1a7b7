// Package canonjson reads and writes the canonical JSON of a few
// fixed-shape protocol messages by hand: the MDS SEARCH request, the GSI
// handshake and its certificates, and the GRAM STATUS reply. Every peer
// this repository ships writes those messages with json.Marshal, so one
// shape covers all of them, and the reflection-driven encoder and decoder
// are only needed for the payloads outside it.
//
// The appenders write exactly json.Marshal's bytes: its HTML-safe string
// escapes, base64 with padding for a []byte and null for a nil one, and
// RFC 3339 with nanoseconds for a time.Time. The Reader accepts a payload
// only in that shape (plus string escapes json.Marshal does not write but
// json.Unmarshal reads the same), and a caller hands any payload it does
// not accept to json.Unmarshal, so every payload decodes, or fails, as it
// always did. Each message's fuzz target holds both ends to encoding/json.
package canonjson

import (
	"encoding/base64"
	"errors"
	"strconv"
	"time"
	"unicode/utf8"

	"infogram/internal/zerocopy"
)

const hex = "0123456789abcdef"

// AppendString appends s quoted exactly as json.Marshal quotes it: `\"`,
// `\\`, `\b`, `\f`, `\n`, `\r`, `\t`, `\u00XX` for the other control
// bytes and for `<`, `>` and `&`, `\ufffd` for each byte of invalid
// UTF-8, and `\u2028` and `\u2029`.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendBytes appends b as json.Marshal writes a []byte: null when b is
// nil, else standard base64 with padding, quoted.
func AppendBytes(dst, b []byte) []byte {
	if b == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '"')
	dst = base64.StdEncoding.AppendEncode(dst, b)
	return append(dst, '"')
}

// AppendTime appends t as json.Marshal writes a time.Time: quoted
// RFC 3339 with nanoseconds. Like time.Time.MarshalJSON it fails, with
// nothing appended, for a year outside [0, 9999] or a zone offset of 24
// hours or more.
func AppendTime(dst []byte, t time.Time) ([]byte, error) {
	n0 := len(dst)
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	b := dst[n0+1:]
	switch {
	case len(b) < len("9999-") || b[len("9999")] != '-': // the year takes exactly four digits
		return dst[:n0], errors.New("canonjson: time year outside of range [0,9999]")
	case b[len(b)-1] != 'Z':
		c := b[len(b)-len("Z07:00")]
		h := b[len(b)-len("07:00"):]
		if '0' <= c && c <= '9' || 10*(h[0]-'0')+(h[1]-'0') >= 24 {
			return dst[:n0], errors.New("canonjson: time zone hour outside of range [0,23]")
		}
	}
	return append(dst, '"'), nil
}

// A Reader walks a payload in its canonical shape. Every read consumes
// what it reads; the first one that finds anything else stops the
// Reader, and every later read returns a zero value. Done reports
// whether the whole payload was read in shape. A string read without
// escapes aliases the payload, which must not change afterwards.
type Reader struct {
	p   []byte
	bad bool
}

// NewReader returns a Reader at the start of p.
func NewReader(p []byte) Reader { return Reader{p: p} }

// Done reports whether every read was in shape and nothing is left.
func (r *Reader) Done() bool { return !r.bad && len(r.p) == 0 }

func (r *Reader) fail() { r.bad, r.p = true, nil }

// Lit consumes lit when the payload continues with it and reports
// whether it did; a Reader that does not continue with lit is not
// stopped by it.
func (r *Reader) Lit(lit string) bool {
	if r.bad || len(r.p) < len(lit) || string(r.p[:len(lit)]) != lit {
		return false
	}
	r.p = r.p[len(lit):]
	return true
}

// Expect consumes lit, which the payload must continue with.
func (r *Reader) Expect(lit string) {
	if !r.Lit(lit) {
		r.fail()
	}
}

// Str reads a quoted string.
func (r *Reader) Str() string {
	s, rest, ok := CutString(r.p)
	if !ok {
		r.fail()
		return ""
	}
	r.p = rest
	return s
}

// digits cuts the canonical decimal integer the payload starts with: an
// optional minus sign when signed, then 0 or a digit run without a
// leading zero.
func (r *Reader) digits(signed bool) []byte {
	i := 0
	if signed && len(r.p) > 0 && r.p[0] == '-' {
		i++
	}
	j := i
	for j < len(r.p) && '0' <= r.p[j] && r.p[j] <= '9' {
		j++
	}
	if j == i || r.p[i] == '0' && j > i+1 {
		r.fail()
		return nil
	}
	d := r.p[:j]
	r.p = r.p[j:]
	return d
}

// Int reads an integer that fits an int.
func (r *Reader) Int() int {
	d := r.digits(true)
	if r.bad {
		return 0
	}
	// zerocopy: ParseInt keeps nothing of its argument.
	n, err := strconv.ParseInt(zerocopy.String(d), 10, strconv.IntSize)
	if err != nil {
		r.fail()
		return 0
	}
	return int(n)
}

// Uint reads an unsigned integer that fits a uint64.
func (r *Reader) Uint() uint64 {
	d := r.digits(false)
	if r.bad {
		return 0
	}
	// zerocopy: ParseUint keeps nothing of its argument.
	n, err := strconv.ParseUint(zerocopy.String(d), 10, 64)
	if err != nil {
		r.fail()
		return 0
	}
	return n
}

// plain cuts a quoted string of printable ASCII without escapes and
// returns it with its quotes.
func (r *Reader) plain() []byte {
	if len(r.p) == 0 || r.p[0] != '"' {
		r.fail()
		return nil
	}
	for i := 1; i < len(r.p); i++ {
		switch c := r.p[i]; {
		case c == '"':
			q := r.p[:i+1]
			r.p = r.p[i+1:]
			return q
		case c < 0x20 || c == '\\' || c >= 0x80:
			r.fail()
			return nil
		}
	}
	r.fail()
	return nil
}

// Bytes reads null, as nil, or a quoted standard base64 string, decoded
// into a new slice the way json.Unmarshal decodes a []byte.
func (r *Reader) Bytes() []byte {
	if r.Lit("null") {
		return nil
	}
	q := r.plain()
	if r.bad {
		return nil
	}
	s := q[1 : len(q)-1]
	b := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(b, s)
	if err != nil {
		r.fail()
		return nil
	}
	return b[:n]
}

// Time reads a quoted RFC 3339 time the way json.Unmarshal reads a
// time.Time: by its UnmarshalJSON, so the value, its location included,
// is the one json.Unmarshal gives.
func (r *Reader) Time() time.Time {
	var t time.Time
	q := r.plain()
	if r.bad {
		return t
	}
	if t.UnmarshalJSON(q) != nil {
		r.fail()
	}
	return t
}

// CutString reads the quoted string p starts with and returns its value
// and the bytes after it. It accepts printable ASCII, valid UTF-8 and
// every escape but a \u of a UTF-16 surrogate, which it leaves to
// json.Unmarshal. Without escapes the value aliases p.
func CutString(p []byte) (string, []byte, bool) {
	if len(p) == 0 || p[0] != '"' {
		return "", nil, false
	}
	escaped, wide := false, false
	end := -1
	for i := 1; i < len(p) && end < 0; i++ {
		switch c := p[i]; {
		case c == '"':
			end = i
		case c == '\\':
			_, n := unescape(p[i:])
			if n == 0 {
				return "", nil, false
			}
			i += n - 1
			escaped = true
		case c < 0x20:
			return "", nil, false
		case c >= utf8.RuneSelf:
			wide = true
		}
	}
	if end < 0 {
		return "", nil, false
	}
	body := p[1:end]
	// An escape is ASCII, so it cannot hide invalid UTF-8 around it.
	if wide && !utf8.Valid(body) {
		return "", nil, false
	}
	if !escaped {
		return zerocopy.String(body), p[end+1:], true
	}
	out := make([]byte, 0, len(body))
	for i := 0; i < len(body); i++ {
		if body[i] != '\\' {
			out = append(out, body[i])
			continue
		}
		r, n := unescape(body[i:])
		out = utf8.AppendRune(out, r)
		i += n - 1
	}
	// zerocopy: out is this call's own allocation, and nothing writes to
	// it after this.
	return zerocopy.String(out), p[end+1:], true
}

// unescape decodes the escape p starts with: the rune it stands for and
// the escape's length, or n 0 for a malformed escape or a \u of a
// surrogate.
func unescape(p []byte) (r rune, n int) {
	if len(p) < 2 {
		return 0, 0
	}
	switch p[1] {
	case '"', '\\', '/':
		return rune(p[1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		if len(p) < 6 {
			return 0, 0
		}
		for _, c := range p[2:6] {
			var v byte
			switch {
			case '0' <= c && c <= '9':
				v = c - '0'
			case 'a' <= c && c <= 'f':
				v = c - 'a' + 10
			case 'A' <= c && c <= 'F':
				v = c - 'A' + 10
			default:
				return 0, 0
			}
			r = r<<4 | rune(v)
		}
		if 0xd800 <= r && r < 0xe000 {
			return 0, 0
		}
		return r, 6
	}
	return 0, 0
}

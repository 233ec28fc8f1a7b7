package mds

import (
	"bytes"
	"encoding/json"

	"infogram/internal/zerocopy"
)

// The SEARCH payload is JSON, and every client this repository ships
// writes it in one canonical shape: the bytes json.Marshal gives a
// SearchRequest. Both ends read and write that shape by hand, and
// encoding/json stays the oracle (FuzzSearchRequestCodec): the encoder's
// bytes are json.Marshal's, and any payload outside the shape goes to
// json.Unmarshal, so every payload decodes — or fails — as it always did.

const (
	filterKey = `"filter":`
	attrsKey  = `"attrs":[`
)

// appendSearchRequest appends req's SEARCH payload to dst: exactly the
// bytes json.Marshal(req) returns.
func appendSearchRequest(dst []byte, req *SearchRequest) []byte {
	dst = append(dst, '{')
	if req.Filter != "" {
		dst = append(dst, filterKey...)
		dst = appendJSONString(dst, req.Filter)
	}
	if len(req.Attrs) > 0 {
		if req.Filter != "" {
			dst = append(dst, ',')
		}
		dst = append(dst, attrsKey...)
		for i, a := range req.Attrs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, a)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendJSONString appends s quoted as encoding/json quotes it. A string
// of printable ASCII is written here, with the escapes encoding/json
// uses for it: `\"`, `\\`, and `\u003c`, `\u003e`, `\u0026` for the
// HTML characters. Any other string is json.Marshal's to quote.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '<':
			dst = append(dst, `\u003c`...)
		case '>':
			dst = append(dst, `\u003e`...)
		case '&':
			dst = append(dst, `\u0026`...)
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// decodeSearchRequest decodes a SEARCH payload. The canonical shape is
// read by hand; anything else (whitespace, other escapes, bytes outside
// printable ASCII, other key case or order, unknown keys, null) is
// json.Unmarshal's. A decoded string without escapes aliases payload,
// which must not change afterwards.
func decodeSearchRequest(payload []byte) (SearchRequest, error) {
	if req, ok := decodeCanonical(payload); ok {
		return req, nil
	}
	// Declared here, so only a payload outside the shape pays the heap
	// allocation json.Unmarshal's pointer makes of it.
	var req SearchRequest
	err := json.Unmarshal(payload, &req)
	return req, err
}

// decodeCanonical reads p when it is in the canonical shape —
// {"filter":S,"attrs":[S,…]} with either member optional — and reports
// whether it was.
func decodeCanonical(p []byte) (SearchRequest, bool) {
	var r SearchRequest
	if len(p) < 2 || p[0] != '{' || p[len(p)-1] != '}' {
		return r, false
	}
	p = p[1 : len(p)-1]
	if bytes.HasPrefix(p, []byte(filterKey)) {
		s, rest, ok := cutJSONString(p[len(filterKey):])
		if !ok {
			return r, false
		}
		r.Filter, p = s, rest
		if len(p) > 0 {
			if p[0] != ',' || !bytes.HasPrefix(p[1:], []byte(attrsKey)) {
				return r, false
			}
			p = p[1:]
		}
	}
	if bytes.HasPrefix(p, []byte(attrsKey)) {
		p = p[len(attrsKey):]
		for {
			s, rest, ok := cutJSONString(p)
			if !ok || len(rest) == 0 {
				return r, false
			}
			r.Attrs = append(r.Attrs, s)
			sep := rest[0]
			p = rest[1:]
			if sep == ']' {
				break
			}
			if sep != ',' {
				return r, false
			}
		}
	}
	return r, len(p) == 0
}

// cutJSONString reads the quoted string p starts with, of printable
// ASCII and the escapes appendJSONString writes, and returns its value
// and the bytes after it. Without escapes the value aliases p.
func cutJSONString(p []byte) (string, []byte, bool) {
	if len(p) == 0 || p[0] != '"' {
		return "", nil, false
	}
	escaped := false
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
		case c < 0x20 || c >= 0x80:
			return "", nil, false
		}
	}
	if end < 0 {
		return "", nil, false
	}
	body := p[1:end]
	if !escaped {
		return zerocopy.String(body), p[end+1:], true
	}
	out := make([]byte, 0, len(body))
	for i := 0; i < len(body); i++ {
		if body[i] != '\\' {
			out = append(out, body[i])
			continue
		}
		c, n := unescape(body[i:])
		out = append(out, c)
		i += n - 1
	}
	// zerocopy: out is this call's own allocation, and nothing writes to
	// it after this.
	return zerocopy.String(out), p[end+1:], true
}

// unescape decodes the escape p starts with, when it is one that
// appendJSONString writes: the byte it stands for and the escape's
// length, or n 0.
func unescape(p []byte) (c byte, n int) {
	if len(p) >= 2 && (p[1] == '"' || p[1] == '\\') {
		return p[1], 2
	}
	if len(p) >= 6 && string(p[1:4]) == "u00" {
		switch string(p[4:6]) {
		case "3c":
			return '<', 6
		case "3e":
			return '>', 6
		case "26":
			return '&', 6
		}
	}
	return 0, 0
}

package mds

import (
	"bytes"
	"encoding/json"

	"infogram/internal/canonjson"
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
		dst = canonjson.AppendString(dst, req.Filter)
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
			dst = canonjson.AppendString(dst, a)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// decodeSearchRequest decodes a SEARCH payload. The canonical shape is
// read by hand; anything else (whitespace, a \u escape of a surrogate,
// invalid UTF-8, other key case or order, unknown keys, null) is
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
		s, rest, ok := canonjson.CutString(p[len(filterKey):])
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
			s, rest, ok := canonjson.CutString(p)
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

package telemetry

import (
	"context"
	"math/rand/v2"
	"net/http"
)

// TraceID identifies one client request end to end: minted when the
// wire.Server accepts the connection's conversation, carried through the
// core dispatcher into provider lookups, cache reads, and job-manager
// spawns, and stamped onto every structured log record the request
// produces. Correlating a slow query with its per-span log records is a
// grep for the trace ID. The request path carries it as a TraceRef.
type TraceID string

// TraceRef is a trace ID kept binary until it is rendered: 64 random bits
// that render as 16 hex digits, or verbatim any other ID a peer chose.
// The zero TraceRef names no trace.
type TraceRef struct {
	id  uint64
	ext TraceID // an ID not in the minted form; "" when id holds it
}

// NewTraceRef mints a random trace ID from the per-P math/rand/v2 source:
// trace IDs need uniqueness within a log window, not cryptographic
// strength.
func NewTraceRef() TraceRef {
	for {
		if v := rand.Uint64(); v != 0 {
			return TraceRef{id: v}
		}
	}
}

// NewTraceID mints a random 64-bit trace ID in hex.
func NewTraceID() TraceID { return NewTraceRef().ID() }

// RefOf parses a rendered ID, or one still in a frame's bytes, so that
// RefOf(id).ID() == id; the minted form parses without allocating.
func RefOf[T ~string | ~[]byte](id T) TraceRef {
	var v uint64
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case len(id) != 16:
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
			continue
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
			continue
		}
		return TraceRef{ext: TraceID(id)}
	}
	if v == 0 {
		return TraceRef{ext: TraceID(id)}
	}
	return TraceRef{id: v}
}

// IsZero reports whether r names no trace.
func (r TraceRef) IsZero() bool { return r.id == 0 && r.ext == "" }

// ID renders r; a minted ID costs one allocation.
func (r TraceRef) ID() TraceID {
	if r.id == 0 {
		return r.ext
	}
	var b [16]byte
	return TraceID(appendHex16(b[:0], r.id))
}

// Append appends r's rendered form to b.
func (r TraceRef) Append(b []byte) []byte {
	if r.id == 0 {
		return append(b, r.ext...)
	}
	return appendHex16(b, r.id)
}

// appendHex16 appends v as 16 lowercase hex digits.
func appendHex16(b []byte, v uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[v>>shift&0xf])
	}
	return b
}

// ctxKey is the package's context key: its value is the current *Span or,
// from WithTrace, a bare TraceRef.
type ctxKey struct{}

// WithTrace returns a context carrying the trace ID.
func WithTrace(ctx context.Context, id TraceID) context.Context {
	return context.WithValue(ctx, ctxKey{}, RefOf(id))
}

// RefFrom extracts ctx's trace (zero when absent) without allocating.
func RefFrom(ctx context.Context) TraceRef {
	if ctx == nil {
		return TraceRef{}
	}
	switch v := ctx.Value(ctxKey{}).(type) {
	case *Span:
		return v.trace
	case TraceRef:
		return v
	}
	return TraceRef{}
}

// TraceFrom extracts the trace ID from ctx, rendered ("" when absent).
func TraceFrom(ctx context.Context) TraceID { return RefFrom(ctx).ID() }

// Handler serves the registry in Prometheus text exposition format, for
// mounting at /metrics on an operator-facing HTTP port.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

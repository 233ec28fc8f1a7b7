package wire

import (
	"errors"
	"fmt"
	"strconv"

	"infogram/internal/telemetry"
)

// Trace propagation rides on the frame layout exactly like multiplexing:
// the "trace" capability of the HELLO exchange (hello.go). Once a
// trace-aware server has granted it, every request frame (client →
// server) carries the trace context prefixed to its payload:
//
//	VERB SP DECIMAL-LENGTH LF TRACEID SP PARENT-HEX SP SAMPLED SP payload
//
// Responses are never prefixed. On a multiplexed connection the trace
// prefix sits inside the mux inner frame (after the correlation ID), so
// the two capabilities compose. The verb grammar and frame header are
// untouched and the prefix only appears after the server granted it, so
// a client that never asks, or a server that declines, keeps unprefixed
// frames.

// ErrTraceSyntax reports a frame that should carry a trace-context
// prefix but does not.
var ErrTraceSyntax = errors.New("wire: malformed trace context")

// TraceContext is the client-minted trace context carried on the wire:
// which trace the request belongs to, which client span is the caller,
// and whether the client asks the server to record spans for it.
type TraceContext struct {
	Trace   telemetry.TraceID
	Parent  telemetry.SpanID
	Sampled bool
}

// Prefix is what a negotiated connection puts before a frame's payload:
// the mux correlation ID, then, on a traced request, the trace context.
type Prefix struct {
	Mux     bool
	ID      uint64
	Traced  bool
	Trace   telemetry.TraceRef
	Parent  telemetry.SpanID
	Sampled bool
}

// append appends p's encoding to b.
func (p *Prefix) append(b []byte) []byte {
	if p.Mux {
		b = strconv.AppendUint(b, p.ID, 10)
		b = append(b, ' ')
	}
	if p.Traced {
		b = p.Trace.Append(b)
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(p.Parent), 16)
		sampled := byte('0')
		if p.Sampled {
			sampled = '1'
		}
		b = append(b, ' ', sampled, ' ')
	}
	return b
}

// Encode returns f with p in front of its payload, in a new buffer.
func (p Prefix) Encode(f Frame) Frame {
	return Frame{Verb: f.Verb, Payload: append(p.append(nil), f.Payload...)}
}

// EncodeTraceCtx prefixes f's payload with the trace context, producing
// the frame that actually crosses the wire once trace is granted.
func EncodeTraceCtx(tc TraceContext, f Frame) Frame {
	return Prefix{Traced: true, Trace: telemetry.RefOf(tc.Trace), Parent: tc.Parent, Sampled: tc.Sampled}.Encode(f)
}

// DecodeTraceCtx splits a trace-prefixed frame into its trace context
// and the inner frame. The inner payload aliases f's buffer (no copy).
func DecodeTraceCtx(f Frame) (TraceContext, Frame, error) {
	p, inner, err := DecodeTracePrefix(f)
	if err != nil {
		return TraceContext{}, Frame{}, err
	}
	return TraceContext{Trace: p.Trace.ID(), Parent: p.Parent, Sampled: p.Sampled}, inner, nil
}

// DecodeTracePrefix is DecodeTraceCtx with the trace ID left in binary.
func DecodeTracePrefix(f Frame) (Prefix, Frame, error) {
	var idx [3]int
	n := 0
	for i := 0; i < len(f.Payload) && n < 3; i++ {
		if f.Payload[i] == ' ' {
			idx[n] = i
			n++
		}
	}
	if n < 3 || idx[0] == 0 {
		return Prefix{}, Frame{}, fmt.Errorf("%w: %s", ErrTraceSyntax, f)
	}
	parent, err := strconv.ParseUint(string(f.Payload[idx[0]+1:idx[1]]), 16, 64)
	sampled := f.Payload[idx[1]+1 : idx[2]]
	if err != nil || len(sampled) != 1 || (sampled[0] != '0' && sampled[0] != '1') {
		return Prefix{}, Frame{}, fmt.Errorf("%w: %s", ErrTraceSyntax, f)
	}
	p := Prefix{Traced: true, Trace: telemetry.RefOf(f.Payload[:idx[0]]),
		Parent: telemetry.SpanID(parent), Sampled: sampled[0] == '1'}
	return p, Frame{Verb: f.Verb, Payload: f.Payload[idx[2]+1:]}, nil
}

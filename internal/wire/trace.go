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

// EncodeTraceCtx prefixes f's payload with the trace context, producing
// the frame that actually crosses the wire once trace is granted.
func EncodeTraceCtx(tc TraceContext, f Frame) Frame {
	p := make([]byte, 0, len(tc.Trace)+21+len(f.Payload))
	p = append(p, tc.Trace...)
	p = append(p, ' ')
	p = strconv.AppendUint(p, uint64(tc.Parent), 16)
	p = append(p, ' ')
	if tc.Sampled {
		p = append(p, '1')
	} else {
		p = append(p, '0')
	}
	p = append(p, ' ')
	p = append(p, f.Payload...)
	return Frame{Verb: f.Verb, Payload: p}
}

// DecodeTraceCtx splits a trace-prefixed frame into its trace context
// and the inner frame. The inner payload aliases f's buffer (no copy).
func DecodeTraceCtx(f Frame) (TraceContext, Frame, error) {
	var idx [3]int
	n := 0
	for i := 0; i < len(f.Payload) && n < 3; i++ {
		if f.Payload[i] == ' ' {
			idx[n] = i
			n++
		}
	}
	if n < 3 || idx[0] == 0 {
		return TraceContext{}, Frame{}, fmt.Errorf("%w: %s", ErrTraceSyntax, f)
	}
	trace := telemetry.TraceID(f.Payload[:idx[0]])
	parent, err := strconv.ParseUint(string(f.Payload[idx[0]+1:idx[1]]), 16, 64)
	if err != nil {
		return TraceContext{}, Frame{}, fmt.Errorf("%w: %s", ErrTraceSyntax, f)
	}
	var sampled bool
	switch string(f.Payload[idx[1]+1 : idx[2]]) {
	case "1":
		sampled = true
	case "0":
		sampled = false
	default:
		return TraceContext{}, Frame{}, fmt.Errorf("%w: %s", ErrTraceSyntax, f)
	}
	tc := TraceContext{Trace: trace, Parent: telemetry.SpanID(parent), Sampled: sampled}
	return tc, Frame{Verb: f.Verb, Payload: f.Payload[idx[2]+1:]}, nil
}

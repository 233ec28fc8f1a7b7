package wire

import (
	"errors"
	"testing"

	"infogram/internal/telemetry"
)

func TestTraceCtxRoundtrip(t *testing.T) {
	tc := TraceContext{Trace: telemetry.NewTraceID(), Parent: telemetry.NewSpanID(), Sampled: true}
	orig := Frame{Verb: "SUBMIT", Payload: []byte("&(executable=noop)")}
	wireFrame := EncodeTraceCtx(tc, orig)
	got, inner, err := DecodeTraceCtx(wireFrame)
	if err != nil {
		t.Fatal(err)
	}
	if got != tc {
		t.Errorf("decoded = %+v, want %+v", got, tc)
	}
	if inner.Verb != orig.Verb || string(inner.Payload) != string(orig.Payload) {
		t.Errorf("inner = %+v, want %+v", inner, orig)
	}
}

func TestTraceCtxUnsampledZeroParent(t *testing.T) {
	// A request from a client with no local span: zero parent, sampled
	// bit off, empty payload.
	tc := TraceContext{Trace: telemetry.NewTraceID()}
	got, inner, err := DecodeTraceCtx(EncodeTraceCtx(tc, Frame{Verb: "PING"}))
	if err != nil {
		t.Fatal(err)
	}
	if got != tc || got.Sampled || got.Parent != 0 {
		t.Errorf("decoded = %+v, want %+v", got, tc)
	}
	if len(inner.Payload) != 0 {
		t.Errorf("inner payload = %q, want empty", inner.Payload)
	}
}

func TestDecodeTraceCtxRejectsMalformed(t *testing.T) {
	for _, payload := range []string{
		"",           // nothing
		"abc",        // no separators
		"abc 12",     // two fields
		" 12 1 x",    // empty trace
		"abc zz 1 x", // bad parent hex
		"abc 12 2 x", // bad sampled bit
		"abc 12  x",  // empty sampled bit
	} {
		if _, _, err := DecodeTraceCtx(Frame{Verb: "PING", Payload: []byte(payload)}); !errors.Is(err, ErrTraceSyntax) {
			t.Errorf("payload %q: err = %v, want ErrTraceSyntax", payload, err)
		}
	}
}

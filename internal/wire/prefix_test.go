package wire

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"strconv"
	"testing"
	"time"

	"infogram/internal/telemetry"
)

// captureConn is a net.Conn that records what is written to it.
type captureConn struct {
	discardConn
	buf bytes.Buffer
}

func (c *captureConn) Write(b []byte) (int, error) { return c.buf.Write(b) }

// refEncodeMux and refEncodeTraceCtx are the copying encoders the wire
// format was defined by, kept verbatim as the oracle for the prefix
// writer and for the encoders built on it.
func refEncodeMux(id uint64, f Frame) Frame {
	p := make([]byte, 0, 21+len(f.Payload))
	p = strconv.AppendUint(p, id, 10)
	p = append(p, ' ')
	p = append(p, f.Payload...)
	return Frame{Verb: f.Verb, Payload: p}
}

func refEncodeTraceCtx(tc TraceContext, f Frame) Frame {
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

// FuzzWirePrefix holds the in-buffer prefix writer to the frames the
// copying encoders build: for any mux ID, trace context, verb and payload,
// WritePrefixed puts on the wire exactly the bytes of
// refEncodeMux(refEncodeTraceCtx(…)), and counts exactly that many bytes;
// EncodeMux and EncodeTraceCtx build the same frames. The decoders must
// never panic on any payload, and must give back what was encoded.
func FuzzWirePrefix(f *testing.F) {
	f.Add("SUBMIT", true, uint64(7), true, "0123456789abcdef", uint64(0xab), true, []byte("&(info=CPULoad)"))
	f.Add("STATUS", true, uint64(1<<63), false, "", uint64(0), false, []byte("gram://h:1/2/3"))
	f.Add("PING", false, uint64(0), true, "4bf92f3577b34da6a3ce929d0e0e4736", uint64(1), false, []byte{})
	f.Add("RESULT-LDIF", true, uint64(0), false, "", uint64(0), false, []byte("dn: kw=x\n"))
	f.Add("SUBMIT", false, uint64(0), true, "00000000000000000", uint64(1), true, []byte("x y z"))
	f.Add("lower", true, uint64(3), true, "ABCDEF0123456789", uint64(2), true, []byte("bad verb"))
	f.Fuzz(func(t *testing.T, verb string, mux bool, id uint64, traced bool, trace string, parent uint64, sampled bool, payload []byte) {
		want, enc := Frame{Verb: verb, Payload: payload}, Frame{Verb: verb, Payload: payload}
		if traced {
			tc := TraceContext{Trace: telemetry.TraceID(trace), Parent: telemetry.SpanID(parent), Sampled: sampled}
			want, enc = refEncodeTraceCtx(tc, want), EncodeTraceCtx(tc, enc)
		}
		if mux {
			want, enc = refEncodeMux(id, want), EncodeMux(id, enc)
		}
		if !bytes.Equal(enc.Payload, want.Payload) {
			t.Fatalf("encoders built %q, want %q", enc.Payload, want.Payload)
		}
		var wantBuf bytes.Buffer
		wantErr := WriteFrame(&wantBuf, want)

		nc := &captureConn{}
		c := NewConn(nc)
		var written telemetry.Counter
		c.Instrument(ConnInstruments{BytesWritten: &written})
		p := Prefix{Mux: mux, ID: id, Traced: traced, Trace: telemetry.RefOf(telemetry.TraceID(trace)),
			Parent: telemetry.SpanID(parent), Sampled: sampled}
		err := c.WritePrefixed(context.Background(), p, Frame{Verb: verb, Payload: payload})
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("WritePrefixed error %v, encoders' %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(nc.buf.Bytes(), wantBuf.Bytes()) {
			t.Fatalf("prefix writer wrote %q, encoders %q", nc.buf.Bytes(), wantBuf.Bytes())
		}
		if err == nil && written.Value() != int64(wantBuf.Len()) {
			t.Fatalf("counted %d bytes, wrote %d", written.Value(), wantBuf.Len())
		}

		// Arbitrary payloads: decoding may fail, never panic.
		_, _, _ = DecodeMux(Frame{Verb: "X", Payload: payload})
		_, _, _ = DecodeTraceCtx(Frame{Verb: "X", Payload: payload})
		_, _, _ = DecodeTracePrefix(Frame{Verb: "X", Payload: payload})
		if err != nil {
			return
		}
		got, rerr := ReadFrame(bufio.NewReader(&nc.buf))
		if rerr != nil {
			t.Fatal(rerr)
		}
		if mux {
			gotID, inner, err := DecodeMux(got)
			if err != nil || gotID != id {
				t.Fatalf("DecodeMux = %d, %v; want %d", gotID, err, id)
			}
			got = inner
		}
		if traced && trace != "" && !bytes.ContainsRune([]byte(trace), ' ') {
			tc, inner, err := DecodeTraceCtx(got)
			if err != nil || tc.Trace != telemetry.TraceID(trace) || tc.Parent != telemetry.SpanID(parent) || tc.Sampled != sampled {
				t.Fatalf("DecodeTraceCtx = %+v, %v; want %q/%x/%t", tc, err, trace, parent, sampled)
			}
			got = inner
		}
		if traced && (trace == "" || bytes.ContainsRune([]byte(trace), ' ')) {
			return // a trace ID the grammar cannot carry: nothing to read back
		}
		if !bytes.Equal(got.Payload, payload) {
			t.Fatalf("payload read back %q, want %q", got.Payload, payload)
		}
	})
}

// A frame operation with no I/O timeout and a context that can neither
// expire nor be cancelled is counted as unbounded, per direction, at no
// allocation; a bounded or cancellable one is not counted.
func TestUnboundedOpsCounted(t *testing.T) {
	var reads, writes telemetry.Counter
	c := NewConn(discardConn{})
	c.Instrument(ConnInstruments{UnboundedReads: &reads, UnboundedWrites: &writes})
	f := Frame{Verb: "RESULT-LDIF", Payload: make([]byte, 512)}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.Write(f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("unbounded write allocates %v times, want 0", allocs)
	}
	if writes.Value() != 101 || reads.Value() != 0 {
		t.Errorf("unbounded writes/reads = %d/%d, want 101/0", writes.Value(), reads.Value())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.WriteContext(ctx, f); err != nil {
		t.Fatal(err)
	}
	c.SetIOTimeout(time.Second)
	if err := c.Write(f); err != nil {
		t.Fatal(err)
	}
	if writes.Value() != 101 {
		t.Errorf("a cancellable or timed write was counted unbounded (%d)", writes.Value())
	}

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	rc := NewConn(a)
	rc.Instrument(ConnInstruments{UnboundedReads: &reads, UnboundedWrites: &writes})
	go func() { _ = NewConn(b).Write(Frame{Verb: "PING"}) }()
	if _, err := rc.Read(); err != nil {
		t.Fatal(err)
	}
	if reads.Value() != 1 {
		t.Errorf("unbounded reads = %d, want 1", reads.Value())
	}

	// A Call is one exchange: unbounded, it counts one write and one
	// read; under an I/O timeout, none. Neither allocates.
	var creads, cwrites telemetry.Counter
	cc := NewConn(pongConn{})
	cc.Instrument(ConnInstruments{UnboundedReads: &creads, UnboundedWrites: &cwrites})
	call := func() {
		if f, err := cc.Call(Frame{Verb: "PING"}); err != nil || f.Verb != "PONG" {
			t.Fatalf("call: %v, %v", f, err)
		}
	}
	if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
		t.Errorf("unbounded call allocates %v times, want 0", allocs)
	}
	if cwrites.Value() != 101 || creads.Value() != 101 {
		t.Errorf("unbounded call writes/reads = %d/%d, want 101/101", cwrites.Value(), creads.Value())
	}
	cc.SetIOTimeout(time.Second)
	if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
		t.Errorf("timed call allocates %v times, want 0", allocs)
	}
	if cwrites.Value() != 101 || creads.Value() != 101 {
		t.Errorf("a timed call was counted unbounded (%d/%d)", cwrites.Value(), creads.Value())
	}
}

// pongConn discards what is written to it and reads as an endless run of
// empty PONG frames.
type pongConn struct{ discardConn }

func (pongConn) Read(b []byte) (int, error) { return copy(b, "PONG 0\n"), nil }

// A cancellation that lands after its write has finished cannot cut the
// connection's next write short: the write waits out a cancellation
// callback already running before it clears the deadline. (A cancel that
// does interrupt its write breaks the connection, as any failed write
// does; the test then moves to a fresh one.)
func TestLateCancelDoesNotPoisonNextWrite(t *testing.T) {
	dial := func() (*Conn, func()) {
		a, b := net.Pipe()
		go func() {
			r := NewConn(b)
			for {
				if _, err := r.Read(); err != nil {
					return
				}
			}
		}()
		return NewConn(a), func() { a.Close(); b.Close() }
	}
	c, closeConn := dial()
	defer func() { closeConn() }()
	survived := 0
	for i := 0; i < 2000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		if err := c.WriteContext(ctx, Frame{Verb: "PING"}); err != nil {
			closeConn()
			c, closeConn = dial()
			continue
		}
		survived++
		if err := c.Write(Frame{Verb: "PING"}); err != nil {
			t.Fatalf("write after a racing cancel %d: %v", i, err)
		}
	}
	if survived == 0 {
		t.Fatal("every racing cancel interrupted its write; the case under test never ran")
	}
}

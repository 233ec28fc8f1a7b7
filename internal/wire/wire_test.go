package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Verb: "SUBMIT", Payload: []byte("(executable=/bin/date)")},
		{Verb: "PING", Payload: nil},
		{Verb: "RESULT-LDIF", Payload: []byte("dn: o=grid\nkw: Memory\n")},
		{Verb: "A", Payload: []byte{0, 1, 2, 255}},
		{Verb: "VERB_WITH_UNDERSCORE", Payload: []byte("x")},
	}
	for _, f := range cases {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("WriteFrame(%v): %v", f, err)
		}
		got, err := ReadFrame(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("ReadFrame(%v): %v", f, err)
		}
		if got.Verb != f.Verb || !bytes.Equal(got.Payload, f.Payload) {
			t.Errorf("round trip: got %v, want %v", got, f)
		}
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	// Any payload bytes survive framing unchanged.
	prop := func(payload []byte) bool {
		f := Frame{Verb: "DATA", Payload: payload}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			return false
		}
		got, err := ReadFrame(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		return got.Verb == "DATA" && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameSequence(t *testing.T) {
	var buf bytes.Buffer
	frames := []Frame{
		{Verb: "ONE", Payload: []byte("first")},
		{Verb: "TWO", Payload: nil},
		{Verb: "THREE", Payload: []byte("third\nwith\nnewlines")},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i, want := range frames {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Verb != want.Verb || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("frame %d: got %v, want %v", i, got, want)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Errorf("expected io.EOF after last frame, got %v", err)
	}
}

func TestWriteFrameRejectsBadVerbs(t *testing.T) {
	bad := []string{"", "lower", "HAS SPACE", "X!", strings.Repeat("V", 33)}
	for _, verb := range bad {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, Frame{Verb: verb}); !errors.Is(err, ErrVerbSyntax) {
			t.Errorf("verb %q: got %v, want ErrVerbSyntax", verb, err)
		}
	}
}

func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, Frame{Verb: "BIG", Payload: make([]byte, MaxPayload+1)})
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("got %v, want ErrTooLarge", err)
	}
}

func TestReadFrameRejectsMalformedHeaders(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"no length", "VERB\n"},
		{"negative length", "VERB -1\n"},
		{"non-numeric length", "VERB abc\n"},
		{"bad verb", "lower 3\nabc"},
		{"oversized", "BIG 999999999999\n"},
		{"empty verb", " 3\nabc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadFrame(bufio.NewReader(strings.NewReader(tc.input))); err == nil {
				t.Errorf("expected error for %q", tc.input)
			}
		})
	}
}

// A header whose length field is empty is a syntax error of its own, not
// a length that happens not to parse.
func TestReadFrameRejectsEmptyLength(t *testing.T) {
	_, err := ReadFrame(bufio.NewReader(strings.NewReader("VERB \n")))
	if !errors.Is(err, ErrFrameSyntax) {
		t.Fatalf("err = %v, want ErrFrameSyntax", err)
	}
	if strings.Contains(err.Error(), "bad length") {
		t.Errorf("empty length reached the length parser: %v", err)
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	if _, err := ReadFrame(bufio.NewReader(strings.NewReader("VERB 10\nshort"))); err == nil {
		t.Error("expected error for truncated payload")
	}
}

// A frame read the connection ended keeps its cause: errors.Is reaches
// it, the text names the step and the cause, and it is not a framing
// error. A header longer than the reader's buffer is one.
func TestReadFrameConnectionEnd(t *testing.T) {
	for _, c := range []struct {
		input, text string
		cause       error
	}{
		{"VERB 10\nshort", "wire: read payload: unexpected EOF", io.ErrUnexpectedEOF},
		{"VERB 10", "wire: read header: EOF", io.EOF},
	} {
		_, err := ReadFrame(bufio.NewReader(strings.NewReader(c.input)))
		if !errors.Is(err, c.cause) || err.Error() != c.text || IsFrameError(err) {
			t.Errorf("ReadFrame(%q) = %v; want %q, wrapping %v, not a frame error", c.input, err, c.text, c.cause)
		}
	}
	if _, err := ReadFrame(bufio.NewReader(strings.NewReader(""))); err != io.EOF {
		t.Errorf("ReadFrame at a clean end = %v; want io.EOF itself", err)
	}
	long := "VERB " + strings.Repeat("1", 5000) + "\n"
	if _, err := ReadFrame(bufio.NewReader(strings.NewReader(long))); !errors.Is(err, ErrFrameSyntax) {
		t.Errorf("a header longer than the buffer: err = %v; want ErrFrameSyntax", err)
	}
}

func TestServerEcho(t *testing.T) {
	srv := NewServer(HandlerFunc(func(c *Conn) {
		for {
			f, err := c.Read()
			if err != nil {
				return
			}
			if err := c.Write(Frame{Verb: "ECHO", Payload: f.Payload}); err != nil {
				return
			}
		}
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	conn, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	resp, err := conn.Call(Frame{Verb: "HELLO", Payload: []byte("payload")})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp.Verb != "ECHO" || string(resp.Payload) != "payload" {
		t.Errorf("got %v", resp)
	}
	if srv.AcceptedConns() != 1 {
		t.Errorf("AcceptedConns = %d, want 1", srv.AcceptedConns())
	}
}

func TestServerConcurrentClients(t *testing.T) {
	srv := NewServer(HandlerFunc(func(c *Conn) {
		for {
			f, err := c.Read()
			if err != nil {
				return
			}
			_ = c.Write(f)
		}
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			for j := 0; j < 20; j++ {
				resp, err := conn.Call(Frame{Verb: "MSG", Payload: []byte("data")})
				if err != nil {
					errs <- err
					return
				}
				if string(resp.Payload) != "data" {
					errs <- errors.New("corrupted echo")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := srv.AcceptedConns(); got != clients {
		t.Errorf("AcceptedConns = %d, want %d", got, clients)
	}
}

func TestConcurrentCallsDoNotInterleave(t *testing.T) {
	// Regression: multiple goroutines sharing one Conn must each receive
	// the response to their own request — Call serializes the write/read
	// pair. The server echoes the request payload, so any interleaving
	// shows up as a mismatched echo.
	srv := NewServer(HandlerFunc(func(c *Conn) {
		for {
			f, err := c.Read()
			if err != nil {
				return
			}
			_ = c.Write(Frame{Verb: "ECHO", Payload: f.Payload})
		}
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const workers, calls = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				payload := []byte(strings.Repeat("x", w+1) + ":" + string(rune('a'+i%26)))
				resp, err := conn.Call(Frame{Verb: "REQ", Payload: payload})
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp.Payload, payload) {
					errs <- errors.New("interleaved response: got " + string(resp.Payload) + " want " + string(payload))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	block := make(chan struct{})
	srv := NewServer(HandlerFunc(func(c *Conn) {
		<-block
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	done := make(chan error, 1)
	go func() {
		_, err := conn.Read()
		done <- err
	}()
	close(block)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-done; err == nil {
		t.Error("expected read error after server close")
	}
	// Closing twice is safe.
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestListenAfterClose(t *testing.T) {
	srv := NewServer(HandlerFunc(func(c *Conn) {}))
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen("127.0.0.1:0"); !errors.Is(err, ErrServerClosed) {
		t.Errorf("got %v, want ErrServerClosed", err)
	}
}

func TestFrameString(t *testing.T) {
	f := Frame{Verb: "LONG", Payload: bytes.Repeat([]byte("x"), 100)}
	s := f.String()
	if !strings.Contains(s, "LONG[100]") {
		t.Errorf("String() = %q", s)
	}
}

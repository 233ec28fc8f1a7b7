package wire

import (
	"context"
	"net"
	"testing"
)

// helloPair dials a TCP pair and runs handler on the accepting side.
func helloPair(t *testing.T, handler func(c *Conn)) *Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	done := make(chan struct{})
	go func() {
		defer close(done)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		handler(NewConn(nc))
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(nc)
	t.Cleanup(func() {
		conn.Close()
		<-done
	})
	return conn
}

func TestParseCaps(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Caps
	}{
		{"", 0},
		{"trace", CapTrace},
		{"mux trace", CapTrace | CapMux},
		{"trace  repl ", CapTrace | CapRepl},
		{"zstd trace later", CapTrace}, // unknown tokens are ignored
		{"TRACE", 0},                   // tokens are case-sensitive
		{"tracemux", 0},
	} {
		if got := ParseCaps([]byte(tc.in)); got != tc.want {
			t.Errorf("ParseCaps(%q) = %b, want %b", tc.in, got, tc.want)
		}
	}
	for c := Caps(0); c <= CapTrace|CapMux|CapRepl; c++ {
		if got := ParseCaps(c.Tokens()); got != c {
			t.Errorf("round trip of %b via %q = %b", c, c.Tokens(), got)
		}
	}
}

// The server's grant is intersected with the request: a server never
// turns on a capability the client did not ask for.
func TestNegotiateTraceAccepted(t *testing.T) {
	asked := make(chan string, 1)
	conn := helloPair(t, func(c *Conn) {
		f, err := c.Read()
		if err != nil || f.Verb != VerbHello {
			return
		}
		asked <- string(f.Payload)
		_ = c.WriteString(VerbHelloOK, "trace repl zstd")
	})
	got, err := Negotiate(context.Background(), conn, CapTrace|CapMux)
	if err != nil || got != CapTrace {
		t.Fatalf("Negotiate = %b, %v; want trace only", got, err)
	}
	if p := <-asked; p != "trace mux" {
		t.Fatalf("HELLO payload %q, want %q", p, "trace mux")
	}
}

func TestNegotiateDeclinedByOldServer(t *testing.T) {
	// A server that predates HELLO answers the unknown verb with ERROR;
	// the client must treat that as a decline, not a failure.
	conn := helloPair(t, func(c *Conn) {
		_, _ = c.Read()
		_ = c.WriteString("ERROR", "unknown verb HELLO")
	})
	got, err := Negotiate(context.Background(), conn, CapTrace|CapMux)
	if err != nil {
		t.Fatalf("decline surfaced as error: %v", err)
	}
	if got != 0 {
		t.Fatalf("ERROR reply granted %b", got)
	}
}

func TestNegotiateTraceTransportError(t *testing.T) {
	conn := helloPair(t, func(c *Conn) {
		_, _ = c.Read()
		c.Close() // cut the connection instead of answering
	})
	if _, err := Negotiate(context.Background(), conn, CapTrace); err == nil {
		t.Fatal("transport failure not surfaced")
	}
}

// Package wire implements the low-level framed message transport shared by
// the three protocols in this repository: GRAMP (the GRAM job protocol),
// the MDS directory protocol, and the unified InfoGram protocol. Each
// protocol defines its own verbs and payload encodings on top of the same
// frame layout, mirroring how the Globus services shared TCP but differed
// at the protocol layer (paper §4).
//
// A frame on the wire is:
//
//	VERB SP DECIMAL-LENGTH LF payload-bytes
//
// VERB is an upper-case token ([A-Z0-9_-]+, at most 32 bytes). The length
// counts the payload bytes that follow the newline. A zero-length payload
// is legal. Frames larger than MaxPayload are rejected to bound memory.
package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"

	"infogram/internal/zerocopy"
)

// MaxPayload bounds the size of a single frame payload. The information
// service returns whole key-information-provider blocks at once (all-or-
// nothing queries, paper §6.3), so payloads are modest; 16 MiB is generous.
const MaxPayload = 16 << 20

// maxVerbLen bounds the verb token length.
const maxVerbLen = 32

// Frame is one protocol message: a verb and an opaque payload whose
// encoding is defined by the protocol that owns the verb.
type Frame struct {
	Verb    string
	Payload []byte
}

// WireSize returns the number of bytes the frame occupies on the wire:
// header (verb, space, decimal length, LF) plus payload.
func (f Frame) WireSize() int { return wireSize(f.Verb, len(f.Payload)) }

// wireSize is the wire size of a frame with an n-byte payload.
func wireSize(verb string, l int) int {
	n := len(verb) + 2 + l // verb, SP, LF, payload
	for {
		n++
		l /= 10
		if l == 0 {
			return n
		}
	}
}

// String renders a short human-readable description for logs.
func (f Frame) String() string {
	const peek = 48
	p := f.Payload
	if len(p) > peek {
		p = p[:peek]
	}
	return fmt.Sprintf("%s[%d]%q", f.Verb, len(f.Payload), p)
}

// Common framing errors.
var (
	ErrVerbSyntax  = errors.New("wire: malformed verb")
	ErrFrameSyntax = errors.New("wire: malformed frame header")
	ErrTooLarge    = errors.New("wire: frame exceeds maximum payload size")
)

// IsFrameError reports whether err is a protocol framing violation (as
// opposed to an I/O error such as a closed connection); the telemetry
// layer counts these separately.
func IsFrameError(err error) bool {
	return errors.Is(err, ErrVerbSyntax) || errors.Is(err, ErrFrameSyntax) || errors.Is(err, ErrTooLarge)
}

// validVerb reports whether s is a legal verb token.
func validVerb(s string) bool {
	if len(s) == 0 || len(s) > maxVerbLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
		case c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// appendFrameHeader appends the wire header of an n-byte payload — verb,
// SP, decimal length, LF — to hdr. A validated verb (≤ maxVerbLen bytes)
// plus the widest length fits in 54 bytes, so a caller passing a
// fixed-size scratch buffer of 64 bytes never triggers a grow.
func appendFrameHeader(hdr []byte, verb string, n int) []byte {
	hdr = append(hdr, verb...)
	hdr = append(hdr, ' ')
	hdr = strconv.AppendInt(hdr, int64(n), 10)
	return append(hdr, '\n')
}

// writeFrame writes a frame whose header advertises an n-byte payload and
// whose body is parts, building the header in hdr's backing array; the
// Conn write path passes a per-connection scratch so steady-state frame
// writes allocate nothing. Fault injection passes fewer bytes than n to
// simulate a sender dying mid-frame.
func writeFrame(w io.Writer, verb string, n int, hdr []byte, parts ...[]byte) error {
	if !validVerb(verb) {
		return fmt.Errorf("%w: %q", ErrVerbSyntax, verb)
	}
	if n > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	if _, err := w.Write(appendFrameHeader(hdr, verb, n)); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	for _, b := range parts {
		if len(b) > 0 {
			if _, err := w.Write(b); err != nil {
				return fmt.Errorf("wire: write payload: %w", err)
			}
		}
	}
	return nil
}

// WriteFrame writes f to w in wire format.
func WriteFrame(w io.Writer, f Frame) error {
	return writeFrame(w, f.Verb, len(f.Payload), nil, f.Payload)
}

// knownVerbs interns the verbs of the three protocols and of the wire
// layer itself (gsi's AUTH exchange; gram's, mds's and core's verbs;
// HELLO, REJECT and REPL), so ReadFrame returns a shared string for
// them instead of allocating one per frame. It is filled once here and
// never written again, so it stays at these 30 entries: an unknown
// verb costs its frame one allocation and is never added.
var knownVerbs = func() map[string]string {
	m := make(map[string]string)
	for _, v := range []string{
		"AUTH", "AUTH-OK", "AUTH-FIN", "AUTH-ERR",
		VerbHello, VerbHelloOK, VerbReject, VerbReplLive, VerbReplRec,
		"SUBMIT", "SUBMITTED", "STATUS", "STATUS-OK", "CANCEL", "CANCEL-OK",
		"SIGNAL", "SIGNAL-OK", "ERROR", "CALLBACK", "PING", "PONG",
		"SEARCH", "RESULT", "REGISTER", "REGISTERED", "MDS-ERROR",
		"RESULT-LDIF", "RESULT-XML", "RESULT-DSML", "MULTI",
	} {
		m[v] = v
	}
	return m
}()

// readError is a frame read that the connection, not the peer's
// framing, ended: EOF mid-frame, a reset, a closed or timed-out socket.
// It wraps the cause without rendering it, so a connection's end costs
// one allocation instead of a formatted message nobody may read.
type readError struct {
	op  string // "read header" or "read payload"
	err error
}

func (e *readError) Error() string { return "wire: " + e.op + ": " + e.err.Error() }
func (e *readError) Unwrap() error { return e.err }

// ReadFrame reads one frame from r. The header is parsed in r's buffer
// and never copied: a known verb is the interned string, and the
// header is done with before the payload read reuses the buffer. A
// header that does not fit in r's buffer is malformed.
func ReadFrame(r *bufio.Reader) (Frame, error) {
	line, err := r.ReadSlice('\n')
	switch {
	case err == nil:
	case err == io.EOF && len(line) == 0:
		return Frame{}, io.EOF
	case errors.Is(err, bufio.ErrBufferFull):
		return Frame{}, fmt.Errorf("%w: header longer than %d bytes", ErrFrameSyntax, r.Size())
	default:
		return Frame{}, &readError{"read header", err}
	}
	line = line[:len(line)-1] // strip LF
	sp := bytes.IndexByte(line, ' ')
	if sp <= 0 || sp == len(line)-1 { // no verb, or no length
		return Frame{}, fmt.Errorf("%w: %q", ErrFrameSyntax, line)
	}
	vb, lb := line[:sp], line[sp+1:]
	verb, ok := knownVerbs[string(vb)]
	if !ok {
		if !validVerb(zerocopy.String(vb)) {
			return Frame{}, fmt.Errorf("%w: %q", ErrVerbSyntax, vb)
		}
		verb = string(vb)
	}
	// zerocopy: ParseInt keeps nothing of its argument, and the length
	// is read before the payload read overwrites the buffer.
	n, err := strconv.ParseInt(zerocopy.String(lb), 10, 64)
	if err != nil || n < 0 {
		return Frame{}, fmt.Errorf("%w: bad length %q", ErrFrameSyntax, lb)
	}
	if n > MaxPayload {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, &readError{"read payload", err}
	}
	return Frame{Verb: verb, Payload: payload}, nil
}

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
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
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

// ReadFrame reads one frame from r.
func ReadFrame(r *bufio.Reader) (Frame, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		if err == io.EOF && line == "" {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("wire: read header: %w", err)
	}
	line = line[:len(line)-1] // strip LF
	sp := strings.IndexByte(line, ' ')
	if sp <= 0 || sp == len(line)-1 { // no verb, or no length
		return Frame{}, fmt.Errorf("%w: %q", ErrFrameSyntax, line)
	}
	verb, lenStr := line[:sp], line[sp+1:]
	if !validVerb(verb) {
		return Frame{}, fmt.Errorf("%w: %q", ErrVerbSyntax, verb)
	}
	n, err := strconv.ParseInt(lenStr, 10, 64)
	if err != nil || n < 0 {
		return Frame{}, fmt.Errorf("%w: bad length %q", ErrFrameSyntax, lenStr)
	}
	if n > MaxPayload {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, fmt.Errorf("wire: read payload: %w", err)
	}
	return Frame{Verb: verb, Payload: payload}, nil
}

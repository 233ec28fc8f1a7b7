// Package ldif encodes and decodes the LDAP Data Interchange Format
// (RFC 2849 subset) used as the default return format of both the MDS
// baseline and the InfoGram service (paper §5.5, §6.5: "The supported
// formats are LDIF and XML").
//
// Supported features: dn lines, attribute/value pairs in order, base64
// encoding (":: ") whenever a value is not safely printable, line folding
// at 76 columns with one-space continuations, comments, and blank-line
// entry separation.
package ldif

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"fmt"
	"io"
	"strings"
	"sync"

	"infogram/internal/zerocopy"
)

// Attr is one attribute/value pair. Values are opaque strings; ordering is
// preserved, since MDS-style records are meaningful in provider order.
type Attr struct {
	Name  string
	Value string
}

// Entry is one LDIF record: a distinguished name plus ordered attributes.
type Entry struct {
	DN    string
	Attrs []Attr
}

// Add appends an attribute and returns the entry for chaining.
func (e *Entry) Add(name, value string) *Entry {
	e.Attrs = append(e.Attrs, Attr{Name: name, Value: value})
	return e
}

// Get returns the first value of the named attribute (case-insensitive),
// with ok reporting presence.
func (e *Entry) Get(name string) (string, bool) {
	for _, a := range e.Attrs {
		if strings.EqualFold(a.Name, name) {
			return a.Value, true
		}
	}
	return "", false
}

// All returns every value of the named attribute in order.
func (e *Entry) All(name string) []string {
	var out []string
	for _, a := range e.Attrs {
		if strings.EqualFold(a.Name, name) {
			out = append(out, a.Value)
		}
	}
	return out
}

// foldWidth is the maximum output line length before folding.
const foldWidth = 76

// needsBase64 reports whether value must be base64-encoded per RFC 2849:
// unsafe initial characters (space, colon, '<'), non-printable or non-ASCII
// bytes, or trailing spaces.
func needsBase64(value string) bool {
	if value == "" {
		return false
	}
	switch value[0] {
	case ' ', ':', '<':
		return true
	}
	if value[len(value)-1] == ' ' {
		return true
	}
	for i := 0; i < len(value); i++ {
		c := value[i]
		if c == '\n' || c == '\r' || c == 0 || c >= 0x80 {
			return true
		}
	}
	return false
}

// encoder carries the scratch buffers of one Encode or Marshal call: the
// logical line being assembled (name + separator + value, base64-encoded
// in place when needed) and, for Marshal, the output buffer. Both are
// pooled, so rendering a reply on the request hot path reuses warm
// buffers instead of growing fresh ones per call.
type encoder struct {
	line []byte
	out  bytes.Buffer
}

// maxPooledScratch caps what a returned encoder may retain; a pathological
// giant reply should not pin its buffers in the pool forever.
const maxPooledScratch = 1 << 20

var encPool = sync.Pool{New: func() any { return new(encoder) }}

func getEncoder() *encoder { return encPool.Get().(*encoder) }

func (e *encoder) release() {
	if cap(e.line) > maxPooledScratch || e.out.Cap() > maxPooledScratch {
		return
	}
	e.line = e.line[:0]
	e.out.Reset()
	encPool.Put(e)
}

var (
	nlByte    = []byte{'\n'}
	spaceByte = []byte{' '}
)

// writeAttr assembles "name: value" (or the base64 ":: " form) in the
// line scratch and writes it to w with RFC 2849 folding. No intermediate
// strings are built.
func (e *encoder) writeAttr(w io.Writer, name, value string) error {
	e.line = append(e.line[:0], name...)
	if needsBase64(value) {
		e.line = append(e.line, ':', ':', ' ')
		// zerocopy: base64 encoding only reads its source.
		e.line = base64.StdEncoding.AppendEncode(e.line, zerocopy.Bytes(value))
	} else {
		e.line = append(e.line, ':', ' ')
		e.line = append(e.line, value...)
	}
	return e.flushFolded(w)
}

// flushFolded writes the assembled line with RFC 2849 folding: rows of at
// most foldWidth output columns, continuation rows led by one space.
func (e *encoder) flushFolded(w io.Writer) error {
	line := e.line
	for first := true; ; first = false {
		width := foldWidth
		if !first {
			if _, err := w.Write(spaceByte); err != nil {
				return err
			}
			width-- // the leading space occupies one output column
		}
		if len(line) <= width {
			if _, err := w.Write(line); err != nil {
				return err
			}
			_, err := w.Write(nlByte)
			return err
		}
		if _, err := w.Write(line[:width]); err != nil {
			return err
		}
		if _, err := w.Write(nlByte); err != nil {
			return err
		}
		line = line[width:]
	}
}

func (e *encoder) encode(w io.Writer, entries []Entry) error {
	for i, ent := range entries {
		if i > 0 {
			if _, err := w.Write(nlByte); err != nil {
				return err
			}
		}
		if err := e.writeAttr(w, "dn", ent.DN); err != nil {
			return err
		}
		for _, a := range ent.Attrs {
			if a.Name == "" {
				return fmt.Errorf("ldif: empty attribute name in entry %q", ent.DN)
			}
			if err := e.writeAttr(w, a.Name, a.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// Encode writes entries to w in LDIF, separated by blank lines.
func Encode(w io.Writer, entries []Entry) error {
	e := getEncoder()
	defer e.release()
	return e.encode(w, entries)
}

// Marshal renders entries as an LDIF string. The only allocation per call
// in the steady state is the returned string itself.
func Marshal(entries []Entry) (string, error) {
	e := getEncoder()
	defer e.release()
	e.out.Reset()
	if err := e.encode(&e.out, entries); err != nil {
		return "", err
	}
	return e.out.String(), nil
}

// Decode parses LDIF from r. Comments (#) are skipped; folded lines are
// unfolded; base64 values are decoded.
func Decode(r io.Reader) ([]Entry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)

	var entries []Entry
	var cur *Entry
	var pending string // logical line being assembled across folds
	lineNo := 0

	flushLine := func() error {
		if pending == "" {
			return nil
		}
		line := pending
		pending = ""
		if strings.HasPrefix(line, "#") {
			return nil
		}
		name, value, err := parseLine(line)
		if err != nil {
			return fmt.Errorf("ldif: line %d: %w", lineNo, err)
		}
		if strings.EqualFold(name, "dn") {
			if cur != nil {
				entries = append(entries, *cur)
			}
			cur = &Entry{DN: value}
			return nil
		}
		if cur == nil {
			return fmt.Errorf("ldif: line %d: attribute %q before any dn", lineNo, name)
		}
		cur.Add(name, value)
		return nil
	}

	for sc.Scan() {
		lineNo++
		raw := sc.Text()
		switch {
		case raw == "":
			if err := flushLine(); err != nil {
				return nil, err
			}
			if cur != nil {
				entries = append(entries, *cur)
				cur = nil
			}
		case strings.HasPrefix(raw, " "):
			if pending == "" {
				return nil, fmt.Errorf("ldif: line %d: continuation with no preceding line", lineNo)
			}
			pending += raw[1:]
		default:
			if err := flushLine(); err != nil {
				return nil, err
			}
			pending = raw
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ldif: read: %w", err)
	}
	if err := flushLine(); err != nil {
		return nil, err
	}
	if cur != nil {
		entries = append(entries, *cur)
	}
	return entries, nil
}

// Unmarshal parses LDIF from a string.
func Unmarshal(s string) ([]Entry, error) {
	return Decode(strings.NewReader(s))
}

// maxLine bounds one physical line, its newline not counted: Decode's
// scanner fails with bufio.ErrTooLong on a line this long or longer, and
// Split does the same.
const maxLine = 1 << 20

// parseLine splits "name: value", "name:: base64", or "name:" lines.
func parseLine(line string) (name, value string, err error) {
	colon := sepColon(line)
	if colon <= 0 {
		return "", "", malformedLine(line)
	}
	name = line[:colon]
	rest := line[colon+1:]
	if strings.HasPrefix(rest, ":") {
		// base64 form
		b, err := base64.StdEncoding.DecodeString(strings.TrimLeft(rest[1:], " "))
		if err != nil {
			return "", "", badBase64(name, err)
		}
		return name, string(b), nil
	}
	return name, strings.TrimLeft(rest, " "), nil
}

// sepColon returns the index of a line's separating colon, -1 if it has
// none: the first colon followed by a space, another colon, or end of
// line. Attribute names themselves may contain colons, because InfoGram
// namespaces attributes as "Keyword:attr" (paper §6.2.1).
func sepColon(line string) int {
	for i := 0; i < len(line); i++ {
		if line[i] == ':' && (i+1 == len(line) || line[i+1] == ' ' || line[i+1] == ':') {
			return i
		}
	}
	return -1
}

func malformedLine(line string) error { return fmt.Errorf("malformed line %q", line) }

func badBase64(name string, err error) error {
	return fmt.Errorf("bad base64 value for %q: %w", name, err)
}

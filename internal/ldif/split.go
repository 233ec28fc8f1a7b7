package ldif

import (
	"bufio"
	"encoding/base64"
	"fmt"
	"slices"
	"strings"
	"sync"

	"infogram/internal/zerocopy"
)

// Block locates one entry of an LDIF body in place: body[Start:End] runs
// from the entry's dn line through its last line (newline included when
// the body has one), and DN is the entry's decoded distinguished name.
type Block struct {
	DN         string
	Start, End int
}

// Split finds the entries of an LDIF body without building Entry values,
// appending one Block per entry to dst[:0]. It accepts and rejects exactly
// the inputs Unmarshal does, and decoding body[b.Start:b.End] yields the
// one entry Unmarshal(body) yields at that position. A comment line falls
// in the block it follows, unless a blank line separates them; comments
// before the first dn or after a blank line fall in no block.
//
// A plain "dn: " value is returned as a view into body, so body must not
// be mutated while the blocks are in use; only a folded or base64 DN is
// copied. Folded lines and base64 values are checked in a pooled scratch
// buffer, so a body costs no allocation per line.
func Split(body []byte, dst []Block) ([]Block, error) {
	s := splitter{text: zerocopy.String(body), out: dst[:0]}
	defer s.release()
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.out, nil
}

// splitter is Decode's line machine with the entry building taken out.
type splitter struct {
	text string // the body, viewed in place
	out  []Block
	open bool // out's last block still collects lines
	// The pending logical line starts at text[start:end]; folded means its
	// continuations have been assembled, unfolded, in sc.line.
	pending    bool
	folded     bool
	start, end int
	lineNo     int
	sc         *splitScratch // taken on the first folded line or base64 value
}

type splitScratch struct{ line, val []byte }

var splitPool = sync.Pool{New: func() any { return new(splitScratch) }}

func (s *splitter) scratch() *splitScratch {
	if s.sc == nil {
		s.sc = splitPool.Get().(*splitScratch)
	}
	return s.sc
}

func (s *splitter) release() {
	if s.sc == nil || cap(s.sc.line) > maxPooledScratch || cap(s.sc.val) > maxPooledScratch {
		return
	}
	splitPool.Put(s.sc)
}

func (s *splitter) run() error {
	text := s.text
	for pos := 0; pos < len(text); {
		end, next := len(text), len(text)
		if i := strings.IndexByte(text[pos:], '\n'); i >= 0 {
			end, next = pos+i, pos+i+1
		}
		if end-pos >= maxLine {
			return fmt.Errorf("ldif: read: %w", bufio.ErrTooLong)
		}
		s.lineNo++
		raw := end
		if raw > pos && text[raw-1] == '\r' {
			raw--
		}
		switch {
		case raw == pos:
			if err := s.flush(); err != nil {
				return err
			}
			s.close(pos)
		case text[pos] == ' ':
			if !s.pending {
				return fmt.Errorf("ldif: line %d: continuation with no preceding line", s.lineNo)
			}
			sc := s.scratch()
			if !s.folded {
				sc.line = append(sc.line[:0], text[s.start:s.end]...)
				s.folded = true
			}
			sc.line = append(sc.line, text[pos+1:raw]...)
		default:
			if err := s.flush(); err != nil {
				return err
			}
			s.pending, s.folded, s.start, s.end = true, false, pos, raw
		}
		pos = next
	}
	if err := s.flush(); err != nil {
		return err
	}
	s.close(len(text))
	return nil
}

// flush checks the pending logical line as Decode's flushLine parses it:
// a dn line closes the open block and opens the next.
func (s *splitter) flush() error {
	if !s.pending {
		return nil
	}
	s.pending = false
	line := s.text[s.start:s.end]
	if s.folded {
		line = zerocopy.String(s.sc.line)
	}
	if line[0] == '#' {
		return nil
	}
	colon := sepColon(line)
	if colon <= 0 {
		return fmt.Errorf("ldif: line %d: %w", s.lineNo, malformedLine(line))
	}
	name, value := line[:colon], line[colon+1:]
	b64 := strings.HasPrefix(value, ":")
	if b64 {
		enc := zerocopy.Bytes(strings.TrimLeft(value[1:], " "))
		sc := s.scratch()
		sc.val = slices.Grow(sc.val[:0], base64.StdEncoding.DecodedLen(len(enc)))
		n, err := base64.StdEncoding.Decode(sc.val[:cap(sc.val)], enc)
		if err != nil {
			return fmt.Errorf("ldif: line %d: %w", s.lineNo, badBase64(name, err))
		}
		value = zerocopy.String(sc.val[:n])
	} else {
		value = strings.TrimLeft(value, " ")
	}
	if strings.EqualFold(name, "dn") {
		s.close(s.start)
		if s.folded || b64 {
			value = strings.Clone(value) // it views the scratch
		}
		s.out = append(s.out, Block{DN: value, Start: s.start})
		s.open = true
		return nil
	}
	if !s.open {
		return fmt.Errorf("ldif: line %d: attribute %q before any dn", s.lineNo, name)
	}
	return nil
}

// close ends the open block, if any, at offset at.
func (s *splitter) close(at int) {
	if s.open {
		s.out[len(s.out)-1].End = at
		s.open = false
	}
}

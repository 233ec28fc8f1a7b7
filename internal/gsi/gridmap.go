package gsi

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
)

// Gridmap maps global Grid identity subjects to local account names, the
// authorization step the gatekeeper performs after authentication ("a
// simple authorization based on mapping the authentication information
// into a local security context (e.g., a Unix login)", paper §2; gridmap
// support is called out in §7).
//
// File format, matching the Globus grid-mapfile:
//
//	"/O=Grid/OU=ANL/CN=gregor" gregor
//	# comment lines and blank lines are ignored
//
// The subject must be quoted when it contains spaces; the local name
// follows after whitespace.
type Gridmap struct {
	mu      sync.RWMutex
	entries map[string]string
}

// NewGridmap returns an empty gridmap.
func NewGridmap() *Gridmap {
	return &Gridmap{entries: make(map[string]string)}
}

// Add maps subject to the local account name.
func (g *Gridmap) Add(subject, local string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.entries[subject] = local
}

// Map resolves the local account for a (possibly proxy) subject. Proxy
// components are stripped before lookup, as in GSI.
func (g *Gridmap) Map(subject string) (string, error) {
	id := IdentitySubject(subject)
	g.mu.RLock()
	local, ok := g.entries[id]
	g.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("gsi: no gridmap entry for %q", id)
	}
	return local, nil
}

// Len returns the number of entries.
func (g *Gridmap) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.entries)
}

// ParseGridmap reads gridmap entries from r.
func ParseGridmap(r io.Reader) (*Gridmap, error) {
	g := NewGridmap()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		subject, local, err := parseGridmapLine(line)
		if err != nil {
			return nil, fmt.Errorf("gsi: gridmap line %d: %w", lineNo, err)
		}
		g.Add(subject, local)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gsi: read gridmap: %w", err)
	}
	return g, nil
}

// LoadGridmap reads a gridmap file from path.
func LoadGridmap(path string) (*Gridmap, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("gsi: open gridmap: %w", err)
	}
	defer f.Close()
	return ParseGridmap(f)
}

func parseGridmapLine(line string) (subject, local string, err error) {
	if strings.HasPrefix(line, `"`) {
		end := strings.Index(line[1:], `"`)
		if end < 0 {
			return "", "", fmt.Errorf("unterminated quoted subject")
		}
		subject = line[1 : 1+end]
		rest := strings.TrimSpace(line[2+end:])
		if rest == "" {
			return "", "", fmt.Errorf("missing local account after subject %q", subject)
		}
		fields := strings.Fields(rest)
		return subject, fields[0], nil
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return "", "", fmt.Errorf("expected subject and local account")
	}
	return fields[0], fields[1], nil
}

// WriteTo renders the gridmap in file format.
func (g *Gridmap) WriteTo(w io.Writer) (int64, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	subjects := make([]string, 0, len(g.entries))
	for s := range g.entries {
		subjects = append(subjects, s)
	}
	sort.Strings(subjects)
	var total int64
	for _, s := range subjects {
		n, err := fmt.Fprintf(w, "%q %s\n", s, g.entries[s])
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

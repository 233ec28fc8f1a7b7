package ldif

import (
	"strings"
	"unicode/utf8"
)

// Glob is a pattern with '*' wildcards, compiled for case-insensitive
// matching like LDAP's caseIgnoreMatch: the pattern lower-cased and split
// at '*' once, so matching a name allocates nothing unless the name is not
// ASCII. A pattern without a wildcard is the single part that must equal
// the whole name; the zero Glob is the empty pattern.
type Glob []string

// CompileGlob compiles pattern.
func CompileGlob(pattern string) Glob {
	return strings.Split(strings.ToLower(pattern), "*")
}

// Match reports whether s, lower-cased, matches the pattern: leftmost
// placement of each middle part, then a suffix test on what is left.
func (g Glob) Match(s string) bool {
	if len(g) == 0 {
		return s == ""
	}
	if !isASCII(s) {
		// Unicode lower-casing can change a name's length; take the
		// allocating path and compare the lowered bytes.
		s = strings.ToLower(s)
	}
	if len(g) == 1 {
		return len(s) == len(g[0]) && hasPrefixFold(s, g[0])
	}
	if !hasPrefixFold(s, g[0]) {
		return false
	}
	s = s[len(g[0]):]
	last := g[len(g)-1]
	for _, mid := range g[1 : len(g)-1] {
		if mid == "" {
			continue
		}
		idx := indexFold(s, mid)
		if idx < 0 {
			return false
		}
		s = s[idx+len(mid):]
	}
	return len(s) >= len(last) && hasPrefixFold(s[len(s)-len(last):], last)
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// hasPrefixFold reports whether s begins with lower, folding A–Z in s.
// lower is already lower-cased, so it holds no A–Z.
func hasPrefixFold(s, lower string) bool {
	if len(s) < len(lower) {
		return false
	}
	for i := 0; i < len(lower); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// indexFold is strings.Index(strings.ToLower(s), lower) for ASCII-folded s.
func indexFold(s, lower string) int {
	for i := 0; i+len(lower) <= len(s); i++ {
		if hasPrefixFold(s[i:], lower) {
			return i
		}
	}
	return -1
}

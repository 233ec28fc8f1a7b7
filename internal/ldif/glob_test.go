package ldif

import (
	"strings"
	"testing"
)

// refGlobMatch is the straightforward matcher — lower-case both strings,
// split the pattern at '*', place each part leftmost — kept as the oracle
// FuzzGlobMatch checks the compiled, allocation-free matcher against.
func refGlobMatch(pattern, s string) bool {
	p := strings.ToLower(pattern)
	v := strings.ToLower(s)
	if !strings.Contains(p, "*") {
		return p == v
	}
	parts := strings.Split(p, "*")
	if !strings.HasPrefix(v, parts[0]) {
		return false
	}
	v = v[len(parts[0]):]
	last := parts[len(parts)-1]
	for _, mid := range parts[1 : len(parts)-1] {
		if mid == "" {
			continue
		}
		idx := strings.Index(v, mid)
		if idx < 0 {
			return false
		}
		v = v[idx+len(mid):]
	}
	return strings.HasSuffix(v, last)
}

// FuzzGlobMatch checks the compiled, case-folding glob against the oracle
// for arbitrary (pattern, name) pairs.
func FuzzGlobMatch(f *testing.F) {
	seeds := [][2]string{
		{"Memory:*", "memory:total"},
		{"*:g3x*", "Kw12:G3X7"},
		{"*g3*", "kw:g13x"},
		{"Memory:free", "MEMORY:FREE"},
		{"", ""},
		{"", "a"},
		{"*", ""},
		{"**", "anything"},
		{"a**b", "ab"},
		{"a*b*b", "abb"},
		{"a*b*b", "ab"},
		{"*b*b", "b"},
		{"a*a", "a"},
		{"ab*b", "ab"},
		{"café:*", "CAFé:x"},
		{"CAFÉ*", "café"},
		{"*k*", "K"},
		{"K*", "k"},
		{"*\xff*", "x\xffy"},
		{"x\xff", "X\xef\xbf\xbd"},
		{"\xff*", "\xfe"},
		{"objectclaſſ", "OBJECTCLASS"},
		{"İ*", "i̇x"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, pattern, name string) {
		if got, want := CompileGlob(pattern).Match(name), refGlobMatch(pattern, name); got != want {
			t.Fatalf("glob %q on %q = %v, oracle %v", pattern, name, got, want)
		}
	})
}

// TestGlobMatchAllocs pins a compiled glob's match on ASCII names at zero
// allocations.
func TestGlobMatchAllocs(t *testing.T) {
	names := []string{"Kw3:g1x5", "KW3:G2X6", "quality:score", "objectclass"}
	globs := []Glob{CompileGlob("*:g1x*"), CompileGlob("*G2*"), CompileGlob("kw3:g1x5"), CompileGlob("*a*b*c*")}
	allocs := testing.AllocsPerRun(100, func() {
		for _, g := range globs {
			for _, n := range names {
				g.Match(n)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("compiled glob match on ASCII: %.1f allocs, want 0", allocs)
	}
}

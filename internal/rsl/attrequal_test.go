package rsl

import (
	"strings"
	"testing"
)

// refCanonAttr and refToLower are copies of canonAttr and toLower, and
// refAttrEqual compares two canonical names: the definition of RSL name
// equality that FuzzAttrEqual checks the in-place AttrEqual against.
func refCanonAttr(name string) string {
	var sb strings.Builder
	for _, r := range name {
		if r == '_' {
			continue
		}
		sb.WriteRune(refToLower(r))
	}
	return sb.String()
}

func refToLower(r rune) rune {
	if r >= 'A' && r <= 'Z' {
		return r + ('a' - 'A')
	}
	return r
}

func refAttrEqual(a, b string) bool { return refCanonAttr(a) == refCanonAttr(b) }

// FuzzAttrEqual checks the in-place AttrEqual against the canonicalizing
// oracle on arbitrary pairs, invalid UTF-8 included.
func FuzzAttrEqual(f *testing.F) {
	seeds := [][2]string{
		{"Max_Time", "maxtime"},
		{"maxtime", "max_time_"},
		{"a", "b"},
		{"", ""},
		{"", "___"},
		{"_", "a"},
		{"rsl_substitution", "RSL_SUBSTITUTION"},
		{"ENVIRONMENT", "environment"},
		{"café", "CAFé"},
		{"CAFÉ", "café"},
		{"x\xff", "X\xef\xbf\xbd"},
		{"\xff", "\xfe"},
		{"a\x80_b", "A\x80B"},
		{"K", "K"},
		{"ab", "abc"},
		{"ab_", "a_b"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if got, want := AttrEqual(a, b), refAttrEqual(a, b); got != want {
			t.Fatalf("AttrEqual(%q, %q) = %v, oracle %v", a, b, got, want)
		}
	})
}

// TestAttrEqualAllocs pins AttrEqual on ASCII names at zero allocations:
// it runs on every relation lookup of every job and information request.
func TestAttrEqualAllocs(t *testing.T) {
	pairs := [][2]string{
		{"Max_Time", "maxtime"},
		{"rsl_substitution", "executable"},
		{"environment", "ENVIRONMENT"},
		{"count", "count_"},
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range pairs {
			AttrEqual(p[0], p[1])
		}
	})
	if allocs != 0 {
		t.Errorf("AttrEqual on ASCII: %.1f allocs, want 0", allocs)
	}
}

package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"infogram/internal/ldif"
	"infogram/internal/provider"
	"infogram/internal/xrsl"
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
// for arbitrary (pattern, name) pairs, and isStructural against
// lower-casing the name and comparing it with each structural name.
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
	structural := []string{"objectclass", "kw", "resource", "keyword"}
	f.Fuzz(func(t *testing.T, pattern, name string) {
		if got, want := compileGlob(pattern).match(name), refGlobMatch(pattern, name); got != want {
			t.Fatalf("glob %q on %q = %v, oracle %v", pattern, name, got, want)
		}
		want := false
		for _, s := range structural {
			want = want || strings.ToLower(name) == s
		}
		if got := isStructural(name); got != want {
			t.Fatalf("isStructural(%q) = %v, want %v", name, got, want)
		}
	})
}

// filterTestEntries builds n fresh provider-shaped entries with twelve
// attributes each, four groups of three, plus the quality attributes.
func filterTestEntries(n int) []ldif.Entry {
	reports := make([]provider.Report, n)
	for i := range reports {
		attrs := make(provider.Attributes, 12)
		for j := range attrs {
			attrs[j] = provider.Attr{Name: fmt.Sprintf("g%dx%d", j%4, j), Value: "v"}
		}
		reports[i] = provider.Report{Keyword: fmt.Sprintf("Kw%d", i), Attrs: attrs}
	}
	entries := provider.ReportEntries("res", reports)
	for i := range entries {
		entries[i].Add("quality:score", "100.00").Add("quality:age", "0.000000s").Add("quality:fromCache", "true")
	}
	return entries
}

// TestGlobMatchAllocs pins a compiled glob's match on ASCII names at zero
// allocations.
func TestGlobMatchAllocs(t *testing.T) {
	names := []string{"Kw3:g1x5", "KW3:G2X6", "quality:score", "objectclass"}
	globs := []glob{compileGlob("*:g1x*"), compileGlob("*G2*"), compileGlob("kw3:g1x5"), compileGlob("*a*b*c*")}
	allocs := testing.AllocsPerRun(100, func() {
		for _, g := range globs {
			for _, n := range names {
				g.match(n)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("compiled glob match on ASCII: %.1f allocs, want 0", allocs)
	}
}

// TestApplyFilterAllocs pins applyFilter on fresh ASCII entries at the
// cost of compiling its pattern: the entries are compacted in place.
func TestApplyFilterAllocs(t *testing.T) {
	const pattern = "*:g1x*"
	tmpl := filterTestEntries(8)
	entries := make([]ldif.Entry, len(tmpl))
	backing := make([][]ldif.Attr, len(tmpl))
	for i := range tmpl {
		backing[i] = make([]ldif.Attr, len(tmpl[i].Attrs))
	}
	refill := func() {
		for i := range tmpl {
			entries[i] = ldif.Entry{DN: tmpl[i].DN, Attrs: append(backing[i][:0], tmpl[i].Attrs...)}
		}
	}
	compile := testing.AllocsPerRun(100, func() { compileGlob(pattern) })
	allocs := testing.AllocsPerRun(100, func() {
		refill()
		if out := applyFilter(entries, pattern); len(out) != len(tmpl) {
			t.Fatalf("applyFilter kept %d of %d entries", len(out), len(tmpl))
		}
	})
	if allocs > compile {
		t.Errorf("applyFilter: %.1f allocs, compiling the glob alone costs %.1f", allocs, compile)
	}
}

// TestApplyFilterSemantics checks the filter tag on provider entries:
// case-insensitive glob, structural attributes kept, entries without a
// matching attribute dropped, and survivors in their original order.
func TestApplyFilterSemantics(t *testing.T) {
	entries := filterTestEntries(4)
	entries[2].Attrs = entries[2].Attrs[:3] // structural attributes only
	out := applyFilter(entries, "KW*:G1X*")
	if len(out) != 3 {
		t.Fatalf("kept %d entries, want 3", len(out))
	}
	for i, want := range []string{"Kw0", "Kw1", "Kw3"} {
		e := out[i]
		if kw, _ := e.Get("kw"); kw != want {
			t.Errorf("entry %d is %q, want %q", i, kw, want)
		}
		var names []string
		for _, a := range e.Attrs {
			names = append(names, a.Name)
		}
		wantNames := []string{"objectclass", "kw", "resource", want + ":g1x1", want + ":g1x5", want + ":g1x9"}
		if fmt.Sprint(names) != fmt.Sprint(wantNames) {
			t.Errorf("entry %d attrs = %v, want %v", i, names, wantNames)
		}
	}
}

// TestSchemaFilterKeepsKeyword checks (info=schema)(filter="attribute:*"):
// schema entries keep their structural keyword attribute but lose source,
// entries declaring no attributes drop out, and the rest keep their order.
func TestSchemaFilterKeepsKeyword(t *testing.T) {
	reg := provider.NewRegistry(nil)
	for _, kw := range []string{"Zeta", "Bare", "Alpha"} {
		p := provider.NewFuncProvider(kw, func(context.Context) (provider.Attributes, error) { return nil, nil })
		if kw != "Bare" {
			p.Schemas = []provider.AttrSchema{{Name: "total", Type: "int"}}
		}
		reg.Register(p, provider.RegisterOptions{TTL: time.Hour})
	}
	e := &infoEngine{resource: "res", registry: reg}
	body, empty, _, err := e.Answer(context.Background(), &xrsl.InfoRequest{Schema: true, Filter: "attribute:*"})
	if err != nil || empty {
		t.Fatalf("Answer: empty=%v err=%v", empty, err)
	}
	out, err := ldif.Unmarshal(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("kept %d schema entries, want 2:\n%s", len(out), body)
	}
	for i, want := range []string{"Zeta", "Alpha"} {
		if kw, ok := out[i].Get("keyword"); !ok || kw != want {
			t.Errorf("entry %d keyword = %q (present %v), want %q", i, kw, ok, want)
		}
		if _, ok := out[i].Get("source"); ok {
			t.Errorf("entry %d kept source", i)
		}
		if v, _ := out[i].Get("attribute:total"); v != "int" {
			t.Errorf("entry %d attribute:total = %q", i, v)
		}
	}
}

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

// FuzzGlobMatch checks the filter tag's per-attribute rule for arbitrary
// (pattern, name) pairs: isStructural against lower-casing the name and
// comparing it with each structural name, and applyFilter keeping an
// entry that holds name beside a structural attribute exactly when name
// is not structural and ldif's glob, fuzzed against its own oracle there,
// matches it.
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
	structuralNames := []string{"objectclass", "kw", "resource", "keyword"}
	f.Fuzz(func(t *testing.T, pattern, name string) {
		structural := false
		for _, s := range structuralNames {
			structural = structural || strings.ToLower(name) == s
		}
		if got := isStructural(name); got != structural {
			t.Fatalf("isStructural(%q) = %v, want %v", name, got, structural)
		}
		e := ldif.Entry{DN: "kw=x", Attrs: []ldif.Attr{{Name: "kw", Value: "x"}, {Name: name, Value: "v"}}}
		kept := len(applyFilter([]ldif.Entry{e}, pattern)) == 1
		if want := !structural && ldif.CompileGlob(pattern).Match(name); kept != want {
			t.Fatalf("applyFilter(%q) on attribute %q kept the entry: %v, want %v", pattern, name, kept, want)
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
	compile := testing.AllocsPerRun(100, func() { ldif.CompileGlob(pattern) })
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

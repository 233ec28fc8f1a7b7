package rsl

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimpleRelation(t *testing.T) {
	n, err := Parse("(executable=/bin/date)")
	if err != nil {
		t.Fatal(err)
	}
	r, ok := n.(*Relation)
	if !ok {
		t.Fatalf("got %T, want *Relation", n)
	}
	if r.Attribute != "executable" || r.Op != OpEq {
		t.Errorf("relation = %+v", r)
	}
	if len(r.Values) != 1 || r.Values[0].(Literal).Text != "/bin/date" {
		t.Errorf("values = %+v", r.Values)
	}
}

func TestParseConjunction(t *testing.T) {
	n, err := Parse("&(executable=/bin/echo)(arguments=a b c)(count=2)")
	if err != nil {
		t.Fatal(err)
	}
	b, ok := n.(*Boolean)
	if !ok || b.Op != And {
		t.Fatalf("got %T %v", n, n)
	}
	if len(b.Specs) != 3 {
		t.Fatalf("got %d specs", len(b.Specs))
	}
	args := b.Specs[1].(*Relation)
	if len(args.Values) != 3 {
		t.Errorf("arguments values = %d, want 3", len(args.Values))
	}
}

func TestParseImplicitConjunction(t *testing.T) {
	n, err := Parse("(a=1)(b=2)")
	if err != nil {
		t.Fatal(err)
	}
	b, ok := n.(*Boolean)
	if !ok || b.Op != And || len(b.Specs) != 2 {
		t.Fatalf("got %v", n)
	}
}

func TestParseMultiRequest(t *testing.T) {
	n, err := Parse("+(&(executable=a))(&(info=all))")
	if err != nil {
		t.Fatal(err)
	}
	parts := SplitMulti(n)
	if len(parts) != 2 {
		t.Fatalf("SplitMulti: %d parts", len(parts))
	}
	// Nested multi-requests flatten.
	n2 := MustParse("+(&(a=1))(+(&(b=2))(&(c=3)))")
	if got := len(SplitMulti(n2)); got != 3 {
		t.Errorf("nested SplitMulti = %d, want 3", got)
	}
}

func TestParseDisjunction(t *testing.T) {
	n, err := Parse("|(&(count=1))(&(count=4))")
	if err != nil {
		t.Fatal(err)
	}
	alts := Alternatives(n)
	if len(alts) != 2 {
		t.Fatalf("Alternatives: %d", len(alts))
	}
}

func TestParseQuoting(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`(a="hello world")`, "hello world"},
		{`(a='single quoted')`, "single quoted"},
		{`(a="embedded ""quotes"" here")`, `embedded "quotes" here`},
		{`(a='don''t')`, "don't"},
		{`(a="")`, ""},
		{`(a="(parens=inside)")`, "(parens=inside)"},
	}
	for _, c := range cases {
		n, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		r := n.(*Relation)
		if got := r.Values[0].(Literal).Text; got != c.want {
			t.Errorf("Parse(%q) value = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestParseOperators(t *testing.T) {
	ops := map[string]Op{
		"(x=1)": OpEq, "(x!=1)": OpNe, "(x<1)": OpLt,
		"(x<=1)": OpLe, "(x>1)": OpGt, "(x>=1)": OpGe,
	}
	for src, want := range ops {
		n, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if got := n.(*Relation).Op; got != want {
			t.Errorf("Parse(%q).Op = %q, want %q", src, got, want)
		}
	}
}

func TestParseVariables(t *testing.T) {
	n, err := Parse("(directory=$(HOME))")
	if err != nil {
		t.Fatal(err)
	}
	v := n.(*Relation).Values[0].(Variable)
	if v.Name != "HOME" || v.Default != nil {
		t.Errorf("variable = %+v", v)
	}

	n2 := MustParse(`(directory=$(SCRATCH "/tmp"))`)
	v2 := n2.(*Relation).Values[0].(Variable)
	if v2.Name != "SCRATCH" || v2.Default.(Literal).Text != "/tmp" {
		t.Errorf("variable with default = %+v", v2)
	}
}

func TestParseConcat(t *testing.T) {
	n, err := Parse(`(stdout=$(HOME)#"/out.txt")`)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := n.(*Relation).Values[0].(Concat)
	if !ok || len(c.Parts) != 2 {
		t.Fatalf("concat = %+v", n.(*Relation).Values[0])
	}
	got, err := EvalValue(c, NewEnv("HOME", "/home/alice"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "/home/alice/out.txt" {
		t.Errorf("EvalValue = %q", got)
	}
}

func TestParseSequences(t *testing.T) {
	n, err := Parse("(environment=(PATH /bin)(LANG C))")
	if err != nil {
		t.Fatal(err)
	}
	r := n.(*Relation)
	if len(r.Values) != 2 {
		t.Fatalf("values = %d", len(r.Values))
	}
	seq := r.Values[0].(Sequence)
	if len(seq.Items) != 2 || seq.Items[0].(Literal).Text != "PATH" {
		t.Errorf("sequence = %+v", seq)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "(", ")", "(a)", "(a=)", "(=b)", "(a=b", "&", "&()",
		"(a=b))", "(a=$HOME)", "(a=$(V)", `(a="unterminated)`,
		"(a!b)", "((a=b)", "(a==b)x",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestSyntaxErrorHasOffset(t *testing.T) {
	_, err := Parse("(a=b")
	var serr *SyntaxError
	if !errors.As(err, &serr) {
		t.Fatalf("got %T, want *SyntaxError", err)
	}
}

func TestUnparseRoundTrip(t *testing.T) {
	srcs := []string{
		"(executable=/bin/date)",
		"&(executable=/bin/echo)(arguments=a b c)(count=2)",
		`&(arguments="hello world" plain)`,
		"+(&(a=1))(&(b=2))",
		"|(&(count=1))(&(count=4))",
		"(environment=(PATH /bin)(LANG C))",
		"(stdout=$(HOME)#/out)",
		`(x=$(V "default"))`,
		"(maxtime>=10)",
	}
	for _, src := range srcs {
		n1, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		printed := n1.Unparse()
		n2, err := Parse(printed)
		if err != nil {
			t.Errorf("re-Parse(%q from %q): %v", printed, src, err)
			continue
		}
		if n2.Unparse() != printed {
			t.Errorf("unstable unparse: %q -> %q", printed, n2.Unparse())
		}
	}
}

// TestLiteralQuotingProperty: any string survives a quote/parse cycle as a
// relation value.
func TestLiteralQuotingProperty(t *testing.T) {
	prop := func(s string) bool {
		if strings.ContainsRune(s, 0) {
			return true // NUL not meaningful in RSL text
		}
		src := "(x=" + (Literal{Text: s}).Unparse() + ")"
		n, err := Parse(src)
		if err != nil {
			return false
		}
		r, ok := n.(*Relation)
		if !ok || len(r.Values) != 1 {
			return false
		}
		lit, ok := r.Values[0].(Literal)
		return ok && lit.Text == s
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSpecAccessors(t *testing.T) {
	spec, err := ParseSpec("&(executable=/bin/echo)(arguments=one two)(count=3)(info=Memory)(info=CPU)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Has("executable") || spec.Has("missing") {
		t.Error("Has misbehaves")
	}
	v, ok, err := spec.First("executable")
	if err != nil || !ok || v != "/bin/echo" {
		t.Errorf("First = %q %v %v", v, ok, err)
	}
	all, err := spec.All("info")
	if err != nil || len(all) != 2 || all[0] != "Memory" || all[1] != "CPU" {
		t.Errorf("All = %v %v", all, err)
	}
	if v, ok, err := spec.First("count"); err != nil || !ok || v != "3" {
		t.Errorf("First(count) = %q %v %v", v, ok, err)
	}
	if v, ok, err := spec.First("absent"); err != nil || ok || v != "" {
		t.Errorf("First(absent) = %q %v %v", v, ok, err)
	}
}

func TestSpecAttrCanonicalization(t *testing.T) {
	spec, err := ParseSpec("(Max_Time=5)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _, _ := spec.First("maxtime"); v != "5" {
		t.Errorf("maxtime = %q, canonicalization failed", v)
	}
	if !AttrEqual("Max_Time", "maxtime") || AttrEqual("a", "b") {
		t.Error("AttrEqual misbehaves")
	}
}

func TestRSLSubstitution(t *testing.T) {
	src := `&(rsl_substitution=(BASE /usr/local)(EXE $(BASE)#/bin/app))(executable=$(EXE))(directory=$(BASE))`
	spec, err := ParseSpec(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	exe, _, err := spec.First("executable")
	if err != nil || exe != "/usr/local/bin/app" {
		t.Errorf("executable = %q %v", exe, err)
	}
	// rsl_substitution is hidden from Relations().
	for _, r := range spec.Relations() {
		if AttrEqual(r.Attribute, SubstitutionAttr) {
			t.Error("rsl_substitution leaked into Relations()")
		}
	}
}

func TestSubstitutionFromCallerEnv(t *testing.T) {
	spec, err := ParseSpec("(directory=$(HOME))", NewEnv("HOME", "/home/bob"))
	if err != nil {
		t.Fatal(err)
	}
	dir, _, err := spec.First("directory")
	if err != nil || dir != "/home/bob" {
		t.Errorf("directory = %q %v", dir, err)
	}
}

func TestUndefinedVariableFails(t *testing.T) {
	spec, err := ParseSpec("(directory=$(NOPE))", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := spec.First("directory"); err == nil {
		t.Error("expected undefined-variable error")
	}
}

func TestVariableDefaultUsed(t *testing.T) {
	spec, err := ParseSpec(`(directory=$(NOPE "/fallback"))`, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir, _, err := spec.First("directory")
	if err != nil || dir != "/fallback" {
		t.Errorf("directory = %q %v", dir, err)
	}
}

func TestNewSpecRejectsBooleans(t *testing.T) {
	if _, err := NewSpec(MustParse("+(&(a=1))(&(b=2))"), nil); err == nil {
		t.Error("multi-request should not form a Spec")
	}
	if _, err := NewSpec(MustParse("|(&(a=1))(&(b=2))"), nil); err == nil {
		t.Error("disjunction should not form a Spec")
	}
	// Nested conjunctions are fine.
	if _, err := NewSpec(MustParse("&(&(a=1))(b=2)"), nil); err != nil {
		t.Errorf("nested conjunction: %v", err)
	}
}

func TestPaperExamples(t *testing.T) {
	// Every RSL fragment that appears in the paper parses.
	examples := []string{
		"(executable=myjavaapplication.jar)",
		"(info=all)",
		"(info=Memory)(info=CPU)",
		"(info=schema)",
		"(response=immediate)",
		"(executable=command)(timeout=1000)(action=cancel)",
	}
	for _, src := range examples {
		if _, err := Parse(src); err != nil {
			t.Errorf("paper example %q: %v", src, err)
		}
	}
}

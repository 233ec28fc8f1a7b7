package rsl

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Op is a relation operator.
type Op string

// Relation operators supported by RSL 1.0.
const (
	OpEq Op = "="
	OpNe Op = "!="
	OpLt Op = "<"
	OpLe Op = "<="
	OpGt Op = ">"
	OpGe Op = ">="
)

// Node is an RSL specification node: either a Boolean combination or a
// Relation.
type Node interface {
	// Unparse renders the node in canonical RSL syntax.
	Unparse() string
	node()
}

// BoolOp is the combining operator of a Boolean node.
type BoolOp byte

// Boolean combination operators.
const (
	And   BoolOp = '&' // conjunction: all sub-specs apply to one request
	Or    BoolOp = '|' // disjunction: any one sub-spec may be chosen
	Multi BoolOp = '+' // multi-request: each sub-spec is a separate request
)

// Boolean is a combination of sub-specifications.
type Boolean struct {
	Op    BoolOp
	Specs []Node
}

func (*Boolean) node() {}

// Unparse renders the boolean in canonical form.
func (b *Boolean) Unparse() string {
	var sb strings.Builder
	sb.WriteByte(byte(b.Op))
	for _, s := range b.Specs {
		if _, ok := s.(*Relation); ok {
			sb.WriteString(s.Unparse())
		} else {
			sb.WriteString("(")
			sb.WriteString(s.Unparse())
			sb.WriteString(")")
		}
	}
	return sb.String()
}

// Relation is one (attribute op values) clause.
type Relation struct {
	Attribute string
	Op        Op
	Values    []Value
}

func (*Relation) node() {}

// Unparse renders the relation in canonical form. The attribute is
// quoted under the same rules as a literal: the parser accepts quoted
// attribute names, so names that are empty or carry special characters
// must round-trip too.
func (r *Relation) Unparse() string {
	var sb strings.Builder
	sb.WriteString("(")
	sb.WriteString(Literal{Text: r.Attribute}.Unparse())
	sb.WriteString(string(r.Op))
	for i, v := range r.Values {
		if i > 0 {
			sb.WriteString(" ")
		}
		sb.WriteString(v.Unparse())
	}
	sb.WriteString(")")
	return sb.String()
}

// Value is a relation value: a literal, a variable reference, a
// concatenation, or a nested sequence.
type Value interface {
	// Unparse renders the value in canonical RSL syntax.
	Unparse() string
	value()
}

// Literal is a constant string value.
type Literal struct {
	Text string
}

func (Literal) value() {}

// needsQuoting reports whether the literal must be quoted to round-trip.
func (l Literal) needsQuoting() bool {
	if l.Text == "" {
		return true
	}
	for i := 0; i < len(l.Text); i++ {
		if isSpecial(l.Text[i]) {
			return true
		}
	}
	return false
}

// Unparse renders the literal, quoting when required.
func (l Literal) Unparse() string {
	if !l.needsQuoting() {
		return l.Text
	}
	return `"` + strings.ReplaceAll(l.Text, `"`, `""`) + `"`
}

// Variable is a $(NAME) or $(NAME default) reference resolved during
// substitution.
type Variable struct {
	Name    string
	Default Value // optional; nil when absent
}

func (Variable) value() {}

// Unparse renders the variable reference. The name is quoted under the
// same rules as a literal: the parser accepts quoted variable names, so
// names with special characters must round-trip too.
func (v Variable) Unparse() string {
	name := Literal{Text: v.Name}.Unparse()
	if v.Default == nil {
		return "$(" + name + ")"
	}
	return "$(" + name + " " + v.Default.Unparse() + ")"
}

// Concat joins sub-values textually (the RSL '#' operator).
type Concat struct {
	Parts []Value
}

func (Concat) value() {}

// Unparse renders the concatenation with '#' separators.
func (c Concat) Unparse() string {
	parts := make([]string, len(c.Parts))
	for i, p := range c.Parts {
		parts[i] = p.Unparse()
	}
	return strings.Join(parts, "#")
}

// Sequence is a parenthesized list of values, used e.g. by
// rsl_substitution definition pairs and multi-valued attributes.
type Sequence struct {
	Items []Value
}

func (Sequence) value() {}

// Unparse renders the sequence.
func (s Sequence) Unparse() string {
	parts := make([]string, len(s.Items))
	for i, it := range s.Items {
		parts[i] = it.Unparse()
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// String implements fmt.Stringer for diagnostics.
func (r *Relation) String() string { return r.Unparse() }

// String implements fmt.Stringer for diagnostics.
func (b *Boolean) String() string { return b.Unparse() }

// canonAttr normalizes an attribute name: RSL attribute names are
// case-insensitive and ignore underscores (GRAM treats max_time and
// maxtime identically).
func canonAttr(name string) string {
	var sb strings.Builder
	for _, r := range name {
		if r == '_' {
			continue
		}
		sb.WriteRune(toLower(r))
	}
	return sb.String()
}

func toLower(r rune) rune {
	if r >= 'A' && r <= 'Z' {
		return r + ('a' - 'A')
	}
	return r
}

// AttrEqual reports whether two attribute names are the same under RSL
// canonicalization. It compares in place — skipping '_' and folding A–Z —
// and hands the remaining suffixes to canonAttr only once a byte outside
// ASCII appears, so ASCII names compare without allocating while other
// input (invalid UTF-8 included) keeps canonAttr's exact semantics.
func AttrEqual(a, b string) bool {
	i, j := 0, 0
	for {
		for i < len(a) && a[i] == '_' {
			i++
		}
		for j < len(b) && b[j] == '_' {
			j++
		}
		if i == len(a) || j == len(b) {
			return i == len(a) && j == len(b)
		}
		ca, cb := a[i], b[j]
		if ca >= utf8.RuneSelf || cb >= utf8.RuneSelf {
			return canonAttr(a[i:]) == canonAttr(b[j:])
		}
		if toLower(rune(ca)) != toLower(rune(cb)) {
			return false
		}
		i++
		j++
	}
}

// errorf builds a SyntaxError at pos.
func errorf(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

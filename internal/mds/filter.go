// Package mds implements the baseline Globus Monitoring and Directory
// Service of paper §3: GRIS servers that expose a resource's information
// providers through an LDAP-style search protocol returning LDIF, and a
// GIIS aggregate that registers GRISes for a virtual organization and fans
// queries out to them. It exists both as the two-protocol baseline of
// Figure 2 and as the backward-compatibility target InfoGram integrates
// with (§6.5 "this information service can easily be integrated into the
// Globus MDS information service architecture").
package mds

import (
	"fmt"
	"strconv"
	"strings"

	"infogram/internal/ldif"
)

// Filter is an LDAP search filter (RFC 4515 subset) evaluated against LDIF
// entries: equality with '*' wildcards, presence, >= and <=, and the
// boolean combinators & | !.
type Filter interface {
	// Matches evaluates the filter against an entry.
	Matches(e *ldif.Entry) bool
	// String renders the filter in LDAP filter syntax.
	String() string
}

// andFilter matches when all children match.
type andFilter struct{ children []Filter }

func (f *andFilter) Matches(e *ldif.Entry) bool {
	for _, c := range f.children {
		if !c.Matches(e) {
			return false
		}
	}
	return true
}

func (f *andFilter) String() string { return "(&" + joinFilters(f.children) + ")" }

// orFilter matches when any child matches.
type orFilter struct{ children []Filter }

func (f *orFilter) Matches(e *ldif.Entry) bool {
	for _, c := range f.children {
		if c.Matches(e) {
			return true
		}
	}
	return false
}

func (f *orFilter) String() string { return "(|" + joinFilters(f.children) + ")" }

// notFilter inverts its child.
type notFilter struct{ child Filter }

func (f *notFilter) Matches(e *ldif.Entry) bool { return !f.child.Matches(e) }
func (f *notFilter) String() string             { return "(!" + f.child.String() + ")" }

func joinFilters(fs []Filter) string {
	var sb strings.Builder
	for _, f := range fs {
		sb.WriteString(f.String())
	}
	return sb.String()
}

// cmpOp is a leaf comparison operator.
type cmpOp int

const (
	opEq cmpOp = iota // = (with wildcards / presence)
	opGe              // >=
	opLe              // <=
)

// leafFilter is an attribute comparison.
type leafFilter struct {
	attr    string
	op      cmpOp
	pattern string    // raw value with possible '*' wildcards for opEq
	glob    ldif.Glob // pattern compiled, for opEq
}

func (f *leafFilter) String() string {
	switch f.op {
	case opGe:
		return "(" + f.attr + ">=" + f.pattern + ")"
	case opLe:
		return "(" + f.attr + "<=" + f.pattern + ")"
	default:
		return "(" + f.attr + "=" + f.pattern + ")"
	}
}

func (f *leafFilter) Matches(e *ldif.Entry) bool {
	// "objectclass" and "dn" pseudo-attributes: objectclass=* matches
	// everything (the MDS convention); dn matches against the entry DN.
	values := e.All(f.attr)
	if strings.EqualFold(f.attr, "dn") {
		values = []string{e.DN}
	}
	if strings.EqualFold(f.attr, "objectclass") && f.pattern == "*" {
		return true
	}
	for _, v := range values {
		if f.matchValue(v) {
			return true
		}
	}
	return false
}

func (f *leafFilter) matchValue(v string) bool {
	switch f.op {
	case opEq:
		return f.glob.Match(v)
	case opGe:
		return numericCompare(v, f.pattern) >= 0
	case opLe:
		return numericCompare(v, f.pattern) <= 0
	}
	return false
}

// numericCompare compares numerically when both parse as floats, falling
// back to string comparison.
func numericCompare(a, b string) int {
	fa, errA := strconv.ParseFloat(strings.TrimSpace(a), 64)
	fb, errB := strconv.ParseFloat(strings.TrimSpace(b), 64)
	if errA == nil && errB == nil {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a, b)
}

// ParseFilter parses an LDAP filter string.
func ParseFilter(s string) (Filter, error) {
	p := &filterParser{src: s}
	f, err := p.parse()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("mds: trailing input in filter at offset %d", p.pos)
	}
	return f, nil
}

type filterParser struct {
	src string
	pos int
}

func (p *filterParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *filterParser) expect(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != c {
		return fmt.Errorf("mds: expected %q at offset %d in filter", string(c), p.pos)
	}
	p.pos++
	return nil
}

func (p *filterParser) parse() (Filter, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("mds: unterminated filter")
	}
	switch p.src[p.pos] {
	case '&':
		p.pos++
		children, err := p.parseList()
		if err != nil {
			return nil, err
		}
		return &andFilter{children}, p.expect(')')
	case '|':
		p.pos++
		children, err := p.parseList()
		if err != nil {
			return nil, err
		}
		return &orFilter{children}, p.expect(')')
	case '!':
		p.pos++
		child, err := p.parse()
		if err != nil {
			return nil, err
		}
		return &notFilter{child}, p.expect(')')
	default:
		return p.parseLeaf()
	}
}

func (p *filterParser) parseList() ([]Filter, error) {
	var out []Filter
	for {
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == '(' {
			f, err := p.parse()
			if err != nil {
				return nil, err
			}
			out = append(out, f)
			continue
		}
		break
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("mds: boolean filter with no operands at offset %d", p.pos)
	}
	return out, nil
}

func (p *filterParser) parseLeaf() (Filter, error) {
	start := p.pos
	for p.pos < len(p.src) && !strings.ContainsRune("=<>()", rune(p.src[p.pos])) {
		p.pos++
	}
	attr := strings.TrimSpace(p.src[start:p.pos])
	if attr == "" {
		return nil, fmt.Errorf("mds: empty attribute in filter at offset %d", start)
	}
	// A leaf can reach here with a leading boolean operator only through
	// whitespace the combinator dispatch does not skip (e.g. "(\n!=...)");
	// such an attribute renders as a combinator and cannot round-trip.
	if attr[0] == '!' || attr[0] == '&' || attr[0] == '|' {
		return nil, fmt.Errorf("mds: attribute cannot begin with %q in filter at offset %d", string(attr[0]), start)
	}
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("mds: unterminated comparison in filter")
	}
	op := opEq
	switch p.src[p.pos] {
	case '>':
		p.pos++
		if err := p.expect('='); err != nil {
			return nil, err
		}
		op = opGe
	case '<':
		p.pos++
		if err := p.expect('='); err != nil {
			return nil, err
		}
		op = opLe
	case '=':
		p.pos++
	default:
		return nil, fmt.Errorf("mds: expected comparison operator at offset %d", p.pos)
	}
	vstart := p.pos
	depth := 0
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ')' && depth == 0 {
			break
		}
		if c == '(' {
			depth++
		}
		if c == ')' {
			depth--
		}
		p.pos++
	}
	value := p.src[vstart:p.pos]
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return newLeaf(attr, op, value), nil
}

// newLeaf builds a leaf, compiling an equality pattern once for every
// entry it is matched against.
func newLeaf(attr string, op cmpOp, pattern string) *leafFilter {
	f := &leafFilter{attr: attr, op: op, pattern: pattern}
	if op == opEq {
		f.glob = ldif.CompileGlob(pattern)
	}
	return f
}

// matchAll is shared: a parsed filter is never modified.
var matchAll = newLeaf("objectclass", opEq, "*")

// MatchAll is the (objectclass=*) filter.
func MatchAll() Filter { return matchAll }

// KeywordHints computes which of the known keywords' entries f could
// possibly match, so a GRIS collects only those providers instead of
// executing every one on every query. The analysis is conservative:
// whenever a sub-filter cannot be proven to narrow the match set — a
// negation, a >=/<= on the keyword attribute, a structural attribute like
// resource — it reports all=true and the caller collects everything. What
// it can prove rests on the ReportEntries shape: each provider entry
// carries exactly the structural attributes (objectclass, kw, resource)
// plus attributes namespaced "<Keyword>:<name>", so a leaf on "kw" selects
// the keywords its pattern matches and a leaf on a namespaced attribute
// selects at most the keyword it is namespaced under.
//
// When all is false, keywords holds the matchable subset in known's order
// and spelling; an empty subset means the filter provably matches no
// provider entry, so the caller can skip collection entirely.
func KeywordHints(f Filter, known []string) (keywords []string, all bool) {
	inc, all := hintVec(f, known)
	if all {
		return nil, true
	}
	out := make([]string, 0, len(known))
	for i, k := range known {
		if inc[i] {
			out = append(out, k)
		}
	}
	return out, false
}

// hintVec evaluates the projection as an inclusion vector over known.
// all=true means "cannot narrow" (the vector is nil then).
func hintVec(f Filter, known []string) (inc []bool, all bool) {
	switch t := f.(type) {
	case *andFilter:
		// Intersection; an unprovable child is the universe.
		var acc []bool
		for _, c := range t.children {
			ci, call := hintVec(c, known)
			if call {
				continue
			}
			if acc == nil {
				acc = ci
				continue
			}
			for i := range acc {
				acc[i] = acc[i] && ci[i]
			}
		}
		if acc == nil {
			return nil, true
		}
		return acc, false
	case *orFilter:
		acc := make([]bool, len(known))
		for _, c := range t.children {
			ci, call := hintVec(c, known)
			if call {
				return nil, true
			}
			for i := range acc {
				acc[i] = acc[i] || ci[i]
			}
		}
		return acc, false
	case *notFilter:
		// A negation matches the complement — including entries the child
		// analysis knows nothing about. Never narrowed.
		return nil, true
	case *leafFilter:
		return leafHintVec(t, known)
	default:
		return nil, true
	}
}

// leafHintVec is the leaf projection described on KeywordHints.
func leafHintVec(f *leafFilter, known []string) (inc []bool, all bool) {
	attr := strings.ToLower(strings.TrimSpace(f.attr))
	switch attr {
	case "kw", "keyword":
		if f.op != opEq {
			return nil, true
		}
		inc = make([]bool, len(known))
		for i, k := range known {
			inc[i] = f.glob.Match(k)
		}
		return inc, false
	case "objectclass", "resource", "dn":
		// Structural attributes appear on every entry.
		return nil, true
	}
	if i := strings.IndexByte(attr, ':'); i > 0 {
		prefix := attr[:i]
		// A namespaced attribute appears only on the entry of the keyword
		// it is namespaced under; an unknown prefix appears on no provider
		// entry at all, so the leaf matches nothing.
		inc = make([]bool, len(known))
		for j, k := range known {
			if strings.EqualFold(k, prefix) {
				inc[j] = true
			}
		}
		return inc, false
	}
	// An un-namespaced, non-structural attribute: no provider entry
	// carries one today, but stay conservative about future entry shapes.
	return nil, true
}

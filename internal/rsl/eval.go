package rsl

import (
	"fmt"
	"strings"
)

// Env is a variable-substitution environment for $(NAME) references.
// Names are case-insensitive (stored upper-case).
type Env map[string]string

// NewEnv builds an Env from alternating name/value pairs.
func NewEnv(pairs ...string) Env {
	if len(pairs)%2 != 0 {
		panic("rsl.NewEnv: odd number of arguments")
	}
	e := make(Env, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		e[strings.ToUpper(pairs[i])] = pairs[i+1]
	}
	return e
}

// Lookup resolves name case-insensitively.
func (e Env) Lookup(name string) (string, bool) {
	v, ok := e[strings.ToUpper(name)]
	return v, ok
}

// EvalValue flattens a Value to its string form under env. Sequences
// evaluate to their space-joined items, which matches how GRAM renders
// multi-part arguments.
func EvalValue(v Value, env Env) (string, error) {
	switch t := v.(type) {
	case Literal:
		return t.Text, nil
	case Variable:
		if env != nil {
			if s, ok := env.Lookup(t.Name); ok {
				return s, nil
			}
		}
		if t.Default != nil {
			return EvalValue(t.Default, env)
		}
		return "", fmt.Errorf("rsl: undefined variable $(%s)", t.Name)
	case Concat:
		var sb strings.Builder
		for _, p := range t.Parts {
			s, err := EvalValue(p, env)
			if err != nil {
				return "", err
			}
			sb.WriteString(s)
		}
		return sb.String(), nil
	case Sequence:
		parts := make([]string, len(t.Items))
		for i, it := range t.Items {
			s, err := EvalValue(it, env)
			if err != nil {
				return "", err
			}
			parts[i] = s
		}
		return strings.Join(parts, " "), nil
	default:
		return "", fmt.Errorf("rsl: unknown value type %T", v)
	}
}

// SubstitutionAttr is the special attribute defining variable bindings:
// (rsl_substitution=(NAME value)(NAME2 value2)).
const SubstitutionAttr = "rsl_substitution"

// Spec is a convenient evaluated view over a conjunction of relations: the
// job-description form every GRAM request ultimately takes. Attribute
// lookups are canonicalized (case- and underscore-insensitive) and
// variables are substituted.
type Spec struct {
	root      Node
	relations []*Relation
	env       Env
}

// NewSpec evaluates node as a single request specification. Disjunctions
// and multi-requests are rejected here; use SplitMulti first for '+'
// specifications. extra provides caller-side variable bindings (e.g.
// HOME, LOGNAME, GLOBUSRUN_GASS_URL in real GRAM) that are merged beneath
// any rsl_substitution bindings in the spec itself.
func NewSpec(node Node, extra Env) (*Spec, error) {
	s := &Spec{root: node, env: make(Env)}
	for k, v := range extra {
		s.env[strings.ToUpper(k)] = v
	}
	if err := s.collect(node); err != nil {
		return nil, err
	}
	// Apply rsl_substitution bindings, in order, before anything else is
	// evaluated. Each pair is (NAME value); later definitions may use
	// earlier ones.
	for _, r := range s.relations {
		if !AttrEqual(r.Attribute, SubstitutionAttr) {
			continue
		}
		for _, v := range r.Values {
			seq, ok := v.(Sequence)
			if !ok || len(seq.Items) < 1 || len(seq.Items) > 2 {
				return nil, fmt.Errorf("rsl: malformed %s pair %s", SubstitutionAttr, v.Unparse())
			}
			name, err := EvalValue(seq.Items[0], s.env)
			if err != nil {
				return nil, err
			}
			val := ""
			if len(seq.Items) == 2 {
				val, err = EvalValue(seq.Items[1], s.env)
				if err != nil {
					return nil, err
				}
			}
			s.env[strings.ToUpper(name)] = val
		}
	}
	return s, nil
}

// ParseSpec parses src and evaluates it as a single request.
func ParseSpec(src string, extra Env) (*Spec, error) {
	n, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return NewSpec(n, extra)
}

func (s *Spec) collect(n Node) error {
	switch t := n.(type) {
	case *Relation:
		s.relations = append(s.relations, t)
		return nil
	case *Boolean:
		switch t.Op {
		case And:
			for _, sub := range t.Specs {
				if err := s.collect(sub); err != nil {
					return err
				}
			}
			return nil
		case Or:
			return fmt.Errorf("rsl: disjunction not valid in a single request; choose an alternative first")
		case Multi:
			return fmt.Errorf("rsl: multi-request not valid in a single request; split with SplitMulti")
		}
	}
	return fmt.Errorf("rsl: unknown node type %T", n)
}

// Root returns the underlying AST node.
func (s *Spec) Root() Node { return s.root }

// Env returns the effective substitution environment.
func (s *Spec) Env() Env { return s.env }

// Relations returns all relations in specification order, excluding the
// rsl_substitution pseudo-relation.
func (s *Spec) Relations() []*Relation {
	out := make([]*Relation, 0, len(s.relations))
	for _, r := range s.relations {
		if AttrEqual(r.Attribute, SubstitutionAttr) {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Has reports whether attribute attr appears with '=' in the spec.
func (s *Spec) Has(attr string) bool {
	for _, r := range s.relations {
		if r.Op == OpEq && AttrEqual(r.Attribute, attr) {
			return true
		}
	}
	return false
}

// First returns the evaluated first value of the first '=' relation for
// attr; ok is false when the attribute is absent.
func (s *Spec) First(attr string) (string, bool, error) {
	for _, r := range s.relations {
		if r.Op != OpEq || !AttrEqual(r.Attribute, attr) {
			continue
		}
		v, err := EvalValue(r.Values[0], s.env)
		if err != nil {
			return "", false, err
		}
		return v, true, nil
	}
	return "", false, nil
}

// All returns every evaluated value of every '=' relation for attr, in
// order. The paper's selective info queries concatenate multiple info tags
// — (info=Memory)(info=CPU) — which arrive here as repeated relations.
func (s *Spec) All(attr string) ([]string, error) {
	var out []string
	for _, r := range s.relations {
		if r.Op != OpEq || !AttrEqual(r.Attribute, attr) {
			continue
		}
		for _, v := range r.Values {
			sv, err := EvalValue(v, s.env)
			if err != nil {
				return nil, err
			}
			out = append(out, sv)
		}
	}
	return out, nil
}

// Unparse renders the evaluated spec canonically.
func (s *Spec) Unparse() string { return s.root.Unparse() }

// SplitMulti expands a specification into its individual requests. A
// multi-request (+) yields one entry per sub-spec; anything else yields a
// single entry.
func SplitMulti(n Node) []Node {
	if b, ok := n.(*Boolean); ok && b.Op == Multi {
		out := make([]Node, 0, len(b.Specs))
		for _, s := range b.Specs {
			out = append(out, SplitMulti(s)...)
		}
		return out
	}
	return []Node{n}
}

// Alternatives expands a disjunction (|) into its choices; anything else
// yields itself.
func Alternatives(n Node) []Node {
	if b, ok := n.(*Boolean); ok && b.Op == Or {
		out := make([]Node, 0, len(b.Specs))
		for _, s := range b.Specs {
			out = append(out, Alternatives(s)...)
		}
		return out
	}
	return []Node{n}
}

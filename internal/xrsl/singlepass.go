package xrsl

import (
	"strings"

	"infogram/internal/rsl"
)

// tag names an attribute decodeRequest reads. The list tags come first:
// they read every value of every relation, as rsl.Spec.All does; every
// other tag reads its first value, as rsl.Spec.First does.
type tag uint8

const (
	tagInfo tag = iota
	tagArguments
	tagExecutable
	tagJobType
	tagFilter
	tagResponse
	tagQuality
	tagPerformance
	tagFormat
	tagDirectory
	tagStdin
	tagCount
	tagQueue
	tagCallback
	tagRestart
	tagMaxTime
	tagTimeout
	tagAction
	numTags
	numListTags = tagArguments + 1
)

var tagNames = [numTags]string{
	"info", "arguments", "executable", "jobtype", "filter", "response", "quality", "performance", "format",
	"directory", "stdin", "count", "queue", "callback", "restart", "maxtime", "timeout", "action",
}

// lookupTag returns the tag attr names, matched as rsl.AttrEqual matches,
// or numTags for any other attribute.
func lookupTag(attr string) tag {
	for t, name := range tagNames {
		if rsl.AttrEqual(attr, name) {
			return tag(t)
		}
	}
	return numTags
}

// relations is the one accessor decodeRequest reads a request through. On
// the parser path it reads the evaluated spec; on the single pass it holds
// the values scanned out of the source, which hold no variables and so
// never fail to evaluate.
type relations struct {
	spec *rsl.Spec // parser path; nil on the single pass
	// On the single pass: every value of each list tag in request order,
	// each other tag's first value, and which tags appeared at all.
	lists [numListTags][]string
	vals  [numTags]string
	has   [numTags]bool
}

// present reports whether t appears with '=', as rsl.Spec.Has does.
func (r *relations) present(t tag) bool {
	if r.spec != nil {
		return r.spec.Has(tagNames[t])
	}
	return r.has[t]
}

// first returns t's first value, as rsl.Spec.First does.
func (r *relations) first(t tag) (string, bool, error) {
	if r.spec != nil {
		return r.spec.First(tagNames[t])
	}
	return r.vals[t], r.has[t], nil
}

// all returns every value of list tag t in request order, as rsl.Spec.All
// does.
func (r *relations) all(t tag) ([]string, error) {
	if r.spec != nil {
		return r.spec.All(tagNames[t])
	}
	return r.lists[t], nil
}

// singlePassValues caps the slots the single pass reserves for a list tag
// beyond its first relation's values: one per later '(' in the source, an
// upper bound on the relations left. A longer request grows the slice.
const singlePassValues = 16

// decodeSinglePass decodes the canonical shapes InfoRequest.Encode and
// JobRequest.Encode produce and clients send, without building an RSL
// tree: an optional '&', then one or more (attr=value …) relations, each
// value a bare literal or a "…" string without a doubled-quote escape.
// Whitespace may surround every token, as the RSL lexer allows. Attributes
// are matched as rsl.AttrEqual does, and those decodeRequest does not read
// are skipped, as the parser path skips them. The values are substrings of
// src and go through decodeRequest like the parser path's. A job's Source
// is src itself, so a job is taken only when src is already what rsl's
// Unparse writes for it: a leading '&', no whitespace outside values, each
// value quoted exactly when rsl.Literal.Unparse quotes it, and list items
// one space apart. ok is false for any other input, which the caller hands
// to decodeParsed unchanged — variables, concatenation, single quotes,
// doubled quotes, sequences, non-'=' relations, boolean operators other
// than a leading '&', rsl_substitution and environment. The scan takes
// tokens at the lexer's boundaries, so whatever it accepts the parser reads
// as the same relations.
func decodeSinglePass(src string) (reqs []*Request, ok bool, err error) {
	var r relations
	var buf [4]string
	vals := buf[:0] // one relation's values
	canon := strings.HasPrefix(src, "&")
	i := skipSpace(src, 0)
	if i < len(src) && src[i] == '&' {
		i = skipSpace(src, i+1)
	}
	canon = canon && i == 1
	if i == len(src) {
		return nil, false, nil
	}
	for i < len(src) {
		if src[i] != '(' {
			return nil, false, nil
		}
		attrStart := skipSpace(src, i+1)
		attrEnd := scanLiteral(src, attrStart)
		eq := skipSpace(src, attrEnd)
		if attrEnd == attrStart || eq == len(src) || src[eq] != '=' {
			return nil, false, nil
		}
		canon = canon && attrStart == i+1 && eq == attrEnd
		i = eq + 1
		vals = vals[:0]
		for {
			j := skipSpace(src, i)
			if j == len(src) {
				return nil, false, nil
			}
			if src[j] == ')' {
				canon = canon && j == i
				i = j + 1
				break
			}
			// Nothing before the first value; one space between values.
			canon = canon && (len(vals) == 0 && j == i || len(vals) > 0 && j == i+1 && src[i] == ' ')
			val, end, quoted := scanValue(src, j)
			if end < 0 {
				return nil, false, nil
			}
			canon = canon && quoted == (val == "" || scanLiteral(val, 0) < len(val))
			vals = append(vals, val)
			i = end
		}
		if len(vals) == 0 {
			return nil, false, nil
		}

		attr := src[attrStart:attrEnd]
		switch t := lookupTag(attr); {
		case t < numListTags:
			if r.lists[t] == nil {
				r.lists[t] = make([]string, 0, len(vals)+min(strings.Count(src[i:], "("), singlePassValues))
			}
			r.lists[t] = append(r.lists[t], vals...)
			r.has[t] = true
		case t < numTags:
			if !r.has[t] {
				r.vals[t], r.has[t] = vals[0], true
			}
		case rsl.AttrEqual(attr, rsl.SubstitutionAttr) || rsl.AttrEqual(attr, "environment"):
			// Bindings change how values evaluate, and environment values
			// are sequences: both need the parser.
			return nil, false, nil
		}

		j := skipSpace(src, i)
		canon = canon && j == i
		i = j
	}
	if r.has[tagExecutable] && !canon {
		// The parser path renders the job's canonical Source.
		return nil, false, nil
	}
	req, err := decodeRequest(&r)
	if err != nil {
		return nil, true, err
	}
	if req.Kind == KindJob {
		req.Source = src
	}
	return []*Request{req}, true, nil
}

// scanValue scans the bare literal or "…" string starting at i and returns
// its text and the offset after it; end is -1 for anything else, and for a
// string holding a doubled quote, which needs the unescaping the parser
// does.
func scanValue(src string, i int) (val string, end int, quoted bool) {
	if src[i] != '"' {
		end = scanLiteral(src, i)
		if end == i {
			return "", -1, false
		}
		return src[i:end], end, false
	}
	// Find the closing quote as the lexer does, stepping over doubled
	// quotes.
	end, escaped := i+1, false
	for end < len(src) {
		if src[end] == '"' {
			if end+1 < len(src) && src[end+1] == '"' {
				escaped = true
				end += 2
				continue
			}
			break
		}
		end++
	}
	if end == len(src) || escaped {
		return "", -1, true
	}
	return src[i+1 : end], end + 1, true
}

// skipSpace returns the offset of the first byte at or after i that is
// not RSL whitespace.
func skipSpace(src string, i int) int {
	for i < len(src) {
		switch src[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// scanLiteral returns the end of the unquoted RSL literal starting at i:
// the first byte at or after i that the lexer treats as special.
func scanLiteral(src string, i int) int {
	for i < len(src) {
		switch src[i] {
		case '(', ')', '&', '|', '+', '#', '$', '=', '<', '>', '!', '\'', '"',
			' ', '\t', '\n', '\r':
			return i
		}
		i++
	}
	return i
}

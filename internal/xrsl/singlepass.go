package xrsl

import (
	"strings"

	"infogram/internal/rsl"
)

// infoTag names a tag decodeInfo reads once: every tag of an info request
// but info itself, which may repeat.
type infoTag uint8

const (
	tagResponse infoTag = iota
	tagQuality
	tagPerformance
	tagFormat
	tagFilter
	numInfoTags
)

var infoTagNames = [numInfoTags]string{"response", "quality", "performance", "format", "filter"}

// infoTags is decodeInfo's one accessor for an info request's tags. On
// the parser path it reads the evaluated spec; on the single pass it holds
// the values scanned out of the source.
type infoTags struct {
	spec *rsl.Spec // parser path; nil on the single pass
	// infos is every info value in request order, on both paths.
	infos []string
	// vals and has hold each tag's first value on the single pass.
	vals [numInfoTags]string
	has  [numInfoTags]bool
}

// first returns the first value of tag, as rsl.Spec.First does.
func (t *infoTags) first(tag infoTag) (string, bool, error) {
	if t.spec != nil {
		return t.spec.First(infoTagNames[tag])
	}
	return t.vals[tag], t.has[tag], nil
}

// singlePassInfos caps the info slots the single pass reserves up front
// (one per '(' in the source, an upper bound on its relations); a longer
// request grows the slice as it goes.
const singlePassInfos = 16

// decodeSinglePass decodes the shape InfoRequest.Encode produces and
// clients send, without building an RSL tree: an optional '&', then one or
// more (tag=value) relations whose tags are all info tags (matched as
// rsl.AttrEqual does) and at least one is info, each with one value that
// is a bare literal or a "…" string without a doubled-quote escape.
// Whitespace may surround every token, as the RSL lexer allows. The
// values are substrings of src and go through decodeInfo like the parser
// path's. ok is false for any other input, which the caller hands to
// decodeParsed unchanged — variables, concatenation, single quotes,
// multi-value and non-'=' relations, boolean operators other than a
// leading '&', and any other attribute. The scan takes tokens at the
// lexer's boundaries, so whatever it accepts the parser reads as the same
// relations.
func decodeSinglePass(src string) (reqs []*Request, ok bool, err error) {
	var t infoTags
	i := skipSpace(src, 0)
	if i < len(src) && src[i] == '&' {
		i = skipSpace(src, i+1)
	}
	if i == len(src) {
		return nil, false, nil
	}
	for i < len(src) {
		if src[i] != '(' {
			return nil, false, nil
		}
		i = skipSpace(src, i+1)
		attrEnd := scanLiteral(src, i)
		if attrEnd == i {
			return nil, false, nil
		}
		attr := src[i:attrEnd]
		i = skipSpace(src, attrEnd)
		if i == len(src) || src[i] != '=' {
			return nil, false, nil
		}
		i = skipSpace(src, i+1)
		var val string
		if i < len(src) && src[i] == '"' {
			// Find the closing quote as the lexer does, stepping over
			// doubled quotes; a value holding one needs the unescaping
			// the parser does.
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
				return nil, false, nil
			}
			val = src[i+1 : end]
			i = end + 1
		} else {
			end := scanLiteral(src, i)
			if end == i {
				return nil, false, nil
			}
			val = src[i:end]
			i = end
		}
		i = skipSpace(src, i)
		if i == len(src) || src[i] != ')' {
			return nil, false, nil
		}
		i = skipSpace(src, i+1)

		if rsl.AttrEqual(attr, "info") {
			if t.infos == nil {
				t.infos = make([]string, 0, min(strings.Count(src, "("), singlePassInfos))
			}
			t.infos = append(t.infos, val)
			continue
		}
		tag := numInfoTags
		for k, name := range infoTagNames {
			if rsl.AttrEqual(attr, name) {
				tag = infoTag(k)
				break
			}
		}
		if tag == numInfoTags {
			return nil, false, nil
		}
		if !t.has[tag] {
			t.vals[tag], t.has[tag] = val, true
		}
	}
	if len(t.infos) == 0 {
		// Not an info request; the parser path words the error.
		return nil, false, nil
	}
	info, err := decodeInfo(&t)
	if err != nil {
		return nil, true, err
	}
	return []*Request{{Kind: KindInfo, Info: info}}, true, nil
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

package provider

import (
	"strings"

	"infogram/internal/ldif"
)

// ObjectClass is the objectclass attribute value stamped on every
// information entry, letting MDS-style filters select provider records.
const ObjectClass = "InfoGramProvider"

// qualityAttrs is the most quality:* attributes the information service
// appends to one entry (score, age, fromCache, stale, function,
// driftSigma, driftObservations), and performanceAttrs the most
// performance:* attributes (mean, stddev, samples); ReportEntries leaves
// room for both.
const (
	qualityAttrs     = 7
	performanceAttrs = 3
)

// entryHeadroom is the spare attribute capacity of each entry.
const entryHeadroom = qualityAttrs + performanceAttrs

// ReportEntries converts provider reports to directory entries: one entry
// per keyword with namespaced attributes ("Memory:total"), under a DN of
// the MDS shape "kw=<keyword>, resource=<name>, o=grid". Both the MDS GRIS
// and the InfoGram service render query results through this function,
// which is what makes InfoGram's information "easily ... integrated into
// the Globus MDS information service architecture" (paper §6.5).
//
// It makes three allocations, however many entries: the entry slice, one
// attribute array the entries' attribute slices are cut from, and one
// string every DN and "Keyword:attr" name is a slice of. Each entry's
// slice is capped at its own part of the array — its structural and
// provider attributes, then room for qualityAttrs + performanceAttrs — so
// appending to one entry never writes into the next. The reports' own
// Attrs, shared with the provider cache, are only read.
func ReportEntries(resource string, reports []Report) []ldif.Entry {
	nattrs, nbytes := 0, 0
	for _, rep := range reports {
		nattrs += 3 + len(rep.Attrs) + entryHeadroom
		nbytes += len("kw=") + len(rep.Keyword) + len(", resource=") + len(resource) + len(", o=grid")
		for _, a := range rep.Attrs {
			nbytes += len(rep.Keyword) + 1 + len(a.Name)
		}
	}
	var sb strings.Builder
	sb.Grow(nbytes)
	for _, rep := range reports {
		sb.WriteString("kw=")
		sb.WriteString(rep.Keyword)
		sb.WriteString(", resource=")
		sb.WriteString(resource)
		sb.WriteString(", o=grid")
		for _, a := range rep.Attrs {
			sb.WriteString(rep.Keyword)
			sb.WriteByte(':')
			sb.WriteString(a.Name)
		}
	}
	text := sb.String()
	backing := make([]ldif.Attr, nattrs)
	out := make([]ldif.Entry, len(reports))
	for i, rep := range reports {
		n := 3 + len(rep.Attrs)
		attrs := backing[: n : n+entryHeadroom]
		backing = backing[n+entryHeadroom:]
		attrs[0] = ldif.Attr{Name: "objectclass", Value: ObjectClass}
		attrs[1] = ldif.Attr{Name: "kw", Value: rep.Keyword}
		attrs[2] = ldif.Attr{Name: "resource", Value: resource}
		dn := len("kw=") + len(rep.Keyword) + len(", resource=") + len(resource) + len(", o=grid")
		out[i].DN, text = text[:dn], text[dn:]
		// The names are namespaced as the paper specifies: "the attribute
		// total in the Memory information provider would be referred to
		// as Memory:total".
		for j, a := range rep.Attrs {
			end := len(rep.Keyword) + 1 + len(a.Name)
			attrs[3+j] = ldif.Attr{Name: text[:end], Value: a.Value}
			text = text[end:]
		}
		out[i].Attrs = attrs
	}
	return out
}

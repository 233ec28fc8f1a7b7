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
// driftSigma, driftObservations); ReportEntries leaves room for them.
const qualityAttrs = 7

// ReportEntries converts provider reports to directory entries: one entry
// per keyword with namespaced attributes ("Memory:total"), under a DN of
// the MDS shape "kw=<keyword>, resource=<name>, o=grid". Both the MDS GRIS
// and the InfoGram service render query results through this function,
// which is what makes InfoGram's information "easily ... integrated into
// the Globus MDS information service architecture" (paper §6.5).
//
// Each entry costs three allocations: its DN, its attribute slice (sized
// once for the structural, provider and quality attributes), and one
// string holding all of its "Keyword:attr" names, each name a slice of
// it. The reports' own Attrs, shared with the provider cache, are only
// read.
func ReportEntries(resource string, reports []Report) []ldif.Entry {
	out := make([]ldif.Entry, len(reports))
	for i, rep := range reports {
		attrs := make([]ldif.Attr, 3, 3+len(rep.Attrs)+qualityAttrs)
		attrs[0] = ldif.Attr{Name: "objectclass", Value: ObjectClass}
		attrs[1] = ldif.Attr{Name: "kw", Value: rep.Keyword}
		attrs[2] = ldif.Attr{Name: "resource", Value: resource}
		out[i] = ldif.Entry{
			DN:    "kw=" + rep.Keyword + ", resource=" + resource + ", o=grid",
			Attrs: appendNamespaced(attrs, rep.Keyword, rep.Attrs),
		}
	}
	return out
}

// appendNamespaced appends attrs to dst under the keyword namespace prefix
// the paper specifies: "the attribute total in the Memory information
// provider would be referred to as Memory:total". All the names are built
// in one string and sliced out of it.
func appendNamespaced(dst []ldif.Attr, keyword string, attrs Attributes) []ldif.Attr {
	n := 0
	for _, a := range attrs {
		n += len(keyword) + 1 + len(a.Name)
	}
	var sb strings.Builder
	sb.Grow(n)
	for _, a := range attrs {
		sb.WriteString(keyword)
		sb.WriteByte(':')
		sb.WriteString(a.Name)
	}
	names := sb.String()
	for _, a := range attrs {
		end := len(keyword) + 1 + len(a.Name)
		dst = append(dst, ldif.Attr{Name: names[:end], Value: a.Value})
		names = names[end:]
	}
	return dst
}

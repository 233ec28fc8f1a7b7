package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"infogram/internal/ldif"
	"infogram/internal/provider"
	"infogram/internal/quality"
	"infogram/internal/xmlenc"
	"infogram/internal/xrsl"
)

// infoEngine answers decoded information queries from the provider
// registry: the "system monitor service" plus "system information service"
// pair of Figure 3, fronted by the xRSL tags of §6.5.
type infoEngine struct {
	resource string
	registry *provider.Registry
	// providerTimeout, when positive, bounds each keyword's retrieval and
	// turns provider failures into degraded partial replies instead of
	// query errors. Zero keeps the all-or-nothing semantics of §6.3.
	providerTimeout time.Duration
}

// Answer evaluates an info request and renders it in the requested format.
// empty reports that no entries survived evaluation (a filter that matched
// nothing) — the response cache stores such bodies under its shorter
// negative TTL. degraded reports whether one or more providers failed or
// timed out and the reply is therefore partial.
func (e *infoEngine) Answer(ctx context.Context, req *xrsl.InfoRequest) (body string, empty, degraded bool, err error) {
	var entries []ldif.Entry
	var missing []provider.DegradedKeyword
	switch {
	case req.Schema:
		entries = e.schemaEntries()
	case e.providerTimeout > 0:
		reports, deg, err := e.registry.CollectDegraded(ctx, req.Keywords, req.Response, req.Quality, e.providerTimeout)
		if err != nil {
			return "", false, false, err
		}
		missing = deg
		entries = provider.ReportEntries(e.resource, reports)
		e.augmentQuality(entries, reports)
		if req.Performance {
			e.augmentPerformance(entries, reports)
		}
	default:
		reports, err := e.registry.Collect(ctx, req.Keywords, req.Response, req.Quality)
		if err != nil {
			return "", false, false, err
		}
		entries = provider.ReportEntries(e.resource, reports)
		e.augmentQuality(entries, reports)
		if req.Performance {
			e.augmentPerformance(entries, reports)
		}
	}
	if req.Filter != "" {
		entries = applyFilter(entries, req.Filter)
	}
	empty = len(entries) == 0
	// The degradation marker is appended after filtering so a client that
	// projected attributes away still learns its reply is partial.
	if len(missing) > 0 {
		entries = append(entries, degradedEntry(e.resource, missing))
	}
	var render func([]ldif.Entry) (string, error)
	switch req.Format {
	case xrsl.FormatXML:
		render = xmlenc.Marshal
	case xrsl.FormatDSML:
		render = xmlenc.MarshalDSML
	default:
		render = ldif.Marshal
	}
	body, err = render(entries)
	return body, empty, len(missing) > 0, err
}

// DegradedObjectClass marks the status entry appended to a partial reply.
const DegradedObjectClass = "InfoGramStatus"

// degradedEntry builds the status entry that flags a partial reply: one
// "missing" attribute per unanswered keyword — or "stale" when the last
// known value was served in its place — plus the provider error that
// caused it.
func degradedEntry(resource string, missing []provider.DegradedKeyword) ldif.Entry {
	entry := ldif.Entry{DN: fmt.Sprintf("status=degraded, resource=%s, o=grid", resource)}
	entry.Add("objectclass", DegradedObjectClass)
	entry.Add("degraded", "true")
	for _, d := range missing {
		if d.Stale {
			entry.Add("stale", d.Keyword)
		} else {
			entry.Add("missing", d.Keyword)
		}
		entry.Add("error:"+strings.ToLower(d.Keyword), d.Err.Error())
	}
	return entry
}

// augmentQuality attaches the quality-of-information assessment of §6.3 to
// each returned keyword block: the degradation score, the value's age, and
// the function that produced the score.
func (e *infoEngine) augmentQuality(entries []ldif.Entry, reports []provider.Report) {
	for i := range reports {
		entries[i].Add("quality:score", fmt.Sprintf("%.2f", float64(reports[i].Result.Quality)))
		// Age renders as ASCII seconds; time.Duration's µs unit would
		// force base64 in LDIF.
		entries[i].Add("quality:age", fmt.Sprintf("%.6fs", reports[i].Result.Age.Seconds()))
		entries[i].Add("quality:fromCache", strconv.FormatBool(reports[i].Result.FromCache))
		if reports[i].Result.Stale {
			// Served past its TTL during a provider outage — the client
			// sees exactly which keyword blocks are beyond their lifetime.
			entries[i].Add("quality:stale", "true")
		}
		if g, ok := e.registry.Lookup(reports[i].Keyword); ok && g.Degradation() != nil {
			entries[i].Add("quality:function", g.Degradation().Name())
			// Self-correcting functions expose their observed drift, the
			// "standard deviation ... of the value" context §5.2 asks for.
			if sc, ok := g.Degradation().(*quality.SelfCorrecting); ok && sc.Observations() > 0 {
				entries[i].Add("quality:driftSigma", fmt.Sprintf("%.6f", sc.DriftSigma()))
				entries[i].Add("quality:driftObservations", strconv.FormatInt(sc.Observations(), 10))
			}
		}
	}
}

// augmentPerformance implements the performance tag: "the number of
// seconds and the standard deviation about how long it takes to obtain a
// particular information value" (§6.5).
func (e *infoEngine) augmentPerformance(entries []ldif.Entry, reports []provider.Report) {
	for i := range reports {
		g, ok := e.registry.Lookup(reports[i].Keyword)
		if !ok {
			continue
		}
		st := g.AverageUpdateTime()
		entries[i].Add("performance:mean", fmt.Sprintf("%.6f", st.Mean().Seconds()))
		entries[i].Add("performance:stddev", fmt.Sprintf("%.6f", st.StdDev().Seconds()))
		entries[i].Add("performance:samples", strconv.FormatUint(st.Count, 10))
	}
}

// schemaEntries implements service reflection (§6.4): one entry per
// keyword describing its source, TTL, degradation function, preferred
// format, retrieval performance, and declared attributes.
func (e *infoEngine) schemaEntries() []ldif.Entry {
	schema := e.registry.Schema()
	out := make([]ldif.Entry, 0, len(schema))
	for _, ks := range schema {
		entry := ldif.Entry{DN: fmt.Sprintf("schema=%s, resource=%s, o=grid", ks.Keyword, e.resource)}
		entry.Add("objectclass", "InfoGramSchema")
		entry.Add("keyword", ks.Keyword)
		entry.Add("source", ks.Source)
		entry.Add("ttl", strconv.FormatInt(ks.TTL.Milliseconds(), 10))
		entry.Add("format", ks.Format)
		if ks.Degradation != "" {
			entry.Add("degradation", ks.Degradation)
		}
		if ks.Performance.Count > 0 {
			entry.Add("performance:mean", fmt.Sprintf("%.6f", ks.Performance.Mean().Seconds()))
			entry.Add("performance:stddev", fmt.Sprintf("%.6f", ks.Performance.StdDev().Seconds()))
		}
		for _, as := range ks.Attributes {
			doc := as.Type
			if as.Doc != "" {
				doc += ": " + as.Doc
			}
			entry.Add("attribute:"+as.Name, doc)
		}
		out = append(out, entry)
	}
	return out
}

// applyFilter keeps, in each entry, only attributes whose names match the
// glob pattern (the filter tag); entries left without any matching
// attribute are dropped, and survivors keep their order. The structural
// attributes (objectclass, kw, resource, and the keyword attribute schema
// entries carry) are always kept on surviving entries. The entries are the
// request's own, fresh from ReportEntries or schemaEntries, so each one's
// attributes are compacted in place and the pattern is compiled once per
// call: apart from compiling the glob, filtering ASCII names allocates
// nothing.
func applyFilter(entries []ldif.Entry, pattern string) []ldif.Entry {
	g := compileGlob(pattern)
	out := entries[:0]
	for _, e := range entries {
		kept := e.Attrs[:0]
		matched := false
		for _, a := range e.Attrs {
			switch {
			case isStructural(a.Name):
			case g.match(a.Name):
				matched = true
			default:
				continue
			}
			kept = append(kept, a)
		}
		if matched {
			e.Attrs = kept
			out = append(out, e)
		}
	}
	return out
}

// structuralAttrs are the attribute names applyFilter keeps regardless of
// the pattern, compiled as exact globs so they fold case exactly as the
// pattern does.
var structuralAttrs = [...]glob{
	compileGlob("objectclass"),
	compileGlob("kw"),
	compileGlob("resource"),
	compileGlob("keyword"),
}

func isStructural(name string) bool {
	for _, g := range structuralAttrs {
		if g.match(name) {
			return true
		}
	}
	return false
}

// glob is a filter pattern with '*' wildcards, compiled for
// case-insensitive matching: the pattern lower-cased and split at '*'
// once, so matching a name allocates nothing unless the name is not ASCII.
// A pattern without a wildcard is the single part that must equal the
// whole name.
type glob []string

func compileGlob(pattern string) glob {
	return strings.Split(strings.ToLower(pattern), "*")
}

// match reports whether s, lower-cased, matches the pattern: leftmost
// placement of each middle part, then a suffix test on what is left.
func (g glob) match(s string) bool {
	if !isASCII(s) {
		// Unicode lower-casing can change a name's length; take the
		// allocating path and compare the lowered bytes.
		s = strings.ToLower(s)
	}
	if len(g) == 1 {
		return len(s) == len(g[0]) && hasPrefixFold(s, g[0])
	}
	if !hasPrefixFold(s, g[0]) {
		return false
	}
	s = s[len(g[0]):]
	last := g[len(g)-1]
	for _, mid := range g[1 : len(g)-1] {
		if mid == "" {
			continue
		}
		idx := indexFold(s, mid)
		if idx < 0 {
			return false
		}
		s = s[idx+len(mid):]
	}
	return len(s) >= len(last) && hasPrefixFold(s[len(s)-len(last):], last)
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// hasPrefixFold reports whether s begins with lower, folding A–Z in s.
// lower is already lower-cased, so it holds no A–Z.
func hasPrefixFold(s, lower string) bool {
	if len(s) < len(lower) {
		return false
	}
	for i := 0; i < len(lower); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// indexFold is strings.Index(strings.ToLower(s), lower) for ASCII-folded s.
func indexFold(s, lower string) int {
	for i := 0; i+len(lower) <= len(s); i++ {
		if hasPrefixFold(s[i:], lower) {
			return i
		}
	}
	return -1
}

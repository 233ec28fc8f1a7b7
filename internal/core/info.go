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
	"infogram/internal/zerocopy"
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
	if req.Schema {
		return render(req, e.schemaEntries(), nil, e.resource)
	}
	var reports []provider.Report
	var missing []provider.DegradedKeyword
	if e.providerTimeout > 0 {
		reports, missing, err = e.registry.CollectDegraded(ctx, req.Keywords, req.Response, req.Quality, e.providerTimeout)
	} else {
		reports, err = e.registry.Collect(ctx, req.Keywords, req.Response, req.Quality)
	}
	if err != nil {
		return "", false, false, err
	}
	return e.answerReports(req, reports, missing)
}

// answerReports is Answer past the collect: the reports become entries,
// gain their quality (and performance) attributes, and are filtered and
// rendered with the degradation marker for the missing keywords.
func (e *infoEngine) answerReports(req *xrsl.InfoRequest, reports []provider.Report, missing []provider.DegradedKeyword) (body string, empty, degraded bool, err error) {
	entries := provider.ReportEntries(e.resource, reports)
	e.augment(entries, reports, req.Performance)
	return render(req, entries, missing, e.resource)
}

// render applies req's filter to entries, appends the status entry that
// flags a partial reply when keywords are missing, and renders the result
// in req's format.
func render(req *xrsl.InfoRequest, entries []ldif.Entry, missing []provider.DegradedKeyword, resource string) (body string, empty, degraded bool, err error) {
	if req.Filter != "" {
		entries = applyFilter(entries, req.Filter)
	}
	empty = len(entries) == 0
	// The degradation marker is appended after filtering so a client that
	// projected attributes away still learns its reply is partial.
	if len(missing) > 0 {
		entries = append(entries, degradedEntry(resource, missing))
	}
	var marshal func([]ldif.Entry) (string, error)
	switch req.Format {
	case xrsl.FormatXML:
		marshal = xmlenc.Marshal
	case xrsl.FormatDSML:
		marshal = xmlenc.MarshalDSML
	default:
		marshal = ldif.Marshal
	}
	body, err = marshal(entries)
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

// augmentBytes and performanceBytes size augment's number buffer per
// entry: a score and an age in seconds, then a mean, a deviation and a
// sample count. A longer number only grows the buffer.
const (
	augmentBytes     = 32
	performanceBytes = 40
)

// numbers is augment's buffer: each number appended to it is returned as
// a view of its own bytes, which nothing writes again — a regrown buffer
// leaves the earlier views on the old array.
type numbers []byte

// float appends v as strconv.FormatFloat(v, 'f', prec, 64) — what
// fmt's %.<prec>f prints — followed by suffix.
func (b *numbers) float(v float64, prec int, suffix string) string {
	at := len(*b)
	*b = append(strconv.AppendFloat(*b, v, 'f', prec, 64), suffix...)
	return zerocopy.String((*b)[at:])
}

// uint appends v in decimal.
func (b *numbers) uint(v uint64) string {
	at := len(*b)
	*b = strconv.AppendUint(*b, v, 10)
	return zerocopy.String((*b)[at:])
}

// augment attaches the quality-of-information assessment of §6.3 to each
// returned keyword block — the degradation score, the value's age, and
// the function that produced the score — and, when performance is set,
// the performance tag: "the number of seconds and the standard deviation
// about how long it takes to obtain a particular information value"
// (§6.5). Every number is formatted into one buffer.
func (e *infoEngine) augment(entries []ldif.Entry, reports []provider.Report, performance bool) {
	per := augmentBytes
	if performance {
		per += performanceBytes
	}
	nums := make(numbers, 0, per*len(reports))
	for i := range reports {
		res := &reports[i].Result
		entries[i].Add("quality:score", nums.float(float64(res.Quality), 2, ""))
		// Age renders as ASCII seconds; time.Duration's µs unit would
		// force base64 in LDIF.
		entries[i].Add("quality:age", nums.float(res.Age.Seconds(), 6, "s"))
		entries[i].Add("quality:fromCache", strconv.FormatBool(res.FromCache))
		if res.Stale {
			// Served past its TTL during a provider outage — the client
			// sees exactly which keyword blocks are beyond their lifetime.
			entries[i].Add("quality:stale", "true")
		}
		g, ok := e.registry.Lookup(reports[i].Keyword)
		if !ok {
			continue
		}
		if d := g.Degradation(); d != nil {
			entries[i].Add("quality:function", g.DegradationName())
			// Self-correcting functions expose their observed drift, the
			// "standard deviation ... of the value" context §5.2 asks for.
			if sc, ok := d.(*quality.SelfCorrecting); ok && sc.Observations() > 0 {
				entries[i].Add("quality:driftSigma", nums.float(sc.DriftSigma(), 6, ""))
				entries[i].Add("quality:driftObservations", nums.uint(uint64(sc.Observations())))
			}
		}
		if performance {
			st := g.AverageUpdateTime()
			entries[i].Add("performance:mean", nums.float(st.Mean().Seconds(), 6, ""))
			entries[i].Add("performance:stddev", nums.float(st.StdDev().Seconds(), 6, ""))
			entries[i].Add("performance:samples", nums.uint(st.Count))
		}
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
	g := ldif.CompileGlob(pattern)
	out := entries[:0]
	for _, e := range entries {
		kept := e.Attrs[:0]
		matched := false
		for _, a := range e.Attrs {
			switch {
			case isStructural(a.Name):
			case g.Match(a.Name):
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
// pattern does. isStructural needs them only for a name that is not
// ASCII.
var structuralAttrs = [...]ldif.Glob{
	ldif.CompileGlob("objectclass"),
	ldif.CompileGlob("kw"),
	ldif.CompileGlob("resource"),
	ldif.CompileGlob("keyword"),
}

// isStructural reports whether name, lower-cased, is one of the
// structural names. An ASCII name is decided by its length and an ASCII
// case fold; any other one by the compiled globs, because Unicode
// lower-casing can turn a longer name into a structural one.
func isStructural(name string) bool {
	var want string
	switch len(name) {
	case len("kw"):
		want = "kw"
	case len("keyword"):
		want = "keyword"
	case len("resource"):
		want = "resource"
	case len("objectclass"):
		want = "objectclass"
	}
	for i := 0; i < len(name); i++ {
		if name[i] >= utf8.RuneSelf {
			for _, g := range structuralAttrs {
				if g.Match(name) {
					return true
				}
			}
			return false
		}
	}
	return want != "" && strings.EqualFold(name, want)
}

package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"infogram/internal/cache"
	"infogram/internal/ldif"
	"infogram/internal/provider"
	"infogram/internal/quality"
	"infogram/internal/xmlenc"
	"infogram/internal/xrsl"
)

// The oracle below is the information miss path as it was before the
// batched entries, the number buffer and the length-switch structural
// test: ReportEntries with one DN, attribute slice and name string per
// entry, Sprintf-formatted quality and performance values, and
// applyFilter's structural test by compiled globs alone. It is kept
// verbatim, renamed, so FuzzInfoAnswer can hold the service to it byte
// for byte.

const oracleQualityAttrs = 7

func oracleReportEntries(resource string, reports []provider.Report) []ldif.Entry {
	out := make([]ldif.Entry, len(reports))
	for i, rep := range reports {
		attrs := make([]ldif.Attr, 3, 3+len(rep.Attrs)+oracleQualityAttrs)
		attrs[0] = ldif.Attr{Name: "objectclass", Value: provider.ObjectClass}
		attrs[1] = ldif.Attr{Name: "kw", Value: rep.Keyword}
		attrs[2] = ldif.Attr{Name: "resource", Value: resource}
		out[i] = ldif.Entry{
			DN:    "kw=" + rep.Keyword + ", resource=" + resource + ", o=grid",
			Attrs: oracleAppendNamespaced(attrs, rep.Keyword, rep.Attrs),
		}
	}
	return out
}

func oracleAppendNamespaced(dst []ldif.Attr, keyword string, attrs provider.Attributes) []ldif.Attr {
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

func oracleAugmentQuality(e *infoEngine, entries []ldif.Entry, reports []provider.Report) {
	for i := range reports {
		entries[i].Add("quality:score", fmt.Sprintf("%.2f", float64(reports[i].Result.Quality)))
		entries[i].Add("quality:age", fmt.Sprintf("%.6fs", reports[i].Result.Age.Seconds()))
		entries[i].Add("quality:fromCache", strconv.FormatBool(reports[i].Result.FromCache))
		if reports[i].Result.Stale {
			entries[i].Add("quality:stale", "true")
		}
		if g, ok := e.registry.Lookup(reports[i].Keyword); ok && g.Degradation() != nil {
			entries[i].Add("quality:function", g.Degradation().Name())
			if sc, ok := g.Degradation().(*quality.SelfCorrecting); ok && sc.Observations() > 0 {
				entries[i].Add("quality:driftSigma", fmt.Sprintf("%.6f", sc.DriftSigma()))
				entries[i].Add("quality:driftObservations", strconv.FormatInt(sc.Observations(), 10))
			}
		}
	}
}

func oracleAugmentPerformance(e *infoEngine, entries []ldif.Entry, reports []provider.Report) {
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

func oracleApplyFilter(entries []ldif.Entry, pattern string) []ldif.Entry {
	g := ldif.CompileGlob(pattern)
	out := entries[:0]
	for _, e := range entries {
		kept := e.Attrs[:0]
		matched := false
		for _, a := range e.Attrs {
			switch {
			case oracleIsStructural(a.Name):
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

var oracleStructuralAttrs = [...]ldif.Glob{
	ldif.CompileGlob("objectclass"),
	ldif.CompileGlob("kw"),
	ldif.CompileGlob("resource"),
	ldif.CompileGlob("keyword"),
}

func oracleIsStructural(name string) bool {
	for _, g := range oracleStructuralAttrs {
		if g.Match(name) {
			return true
		}
	}
	return false
}

// oracleAnswerReports is the old Answer past the collect: entries,
// quality and performance attributes, filter, the degradation marker and
// the render.
func oracleAnswerReports(e *infoEngine, req *xrsl.InfoRequest, reports []provider.Report, missing []provider.DegradedKeyword) (body string, empty, degraded bool, err error) {
	entries := oracleReportEntries(e.resource, reports)
	oracleAugmentQuality(e, entries, reports)
	if req.Performance {
		oracleAugmentPerformance(e, entries, reports)
	}
	if req.Filter != "" {
		entries = oracleApplyFilter(entries, req.Filter)
	}
	empty = len(entries) == 0
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

// oracleEngine is the engine FuzzInfoAnswer renders through: keywords
// with no degradation function, a plain one, a self-correcting one that
// has observed drift and one that has not, and non-ASCII spellings, each
// executed so the performance tag has samples.
var oracleEngine = sync.OnceValue(func() *infoEngine {
	reg := provider.NewRegistry(nil)
	drift := quality.NewSelfCorrecting(quality.Linear{Horizon: time.Minute})
	for i, d := range []float64{0.5, 0.02, 3} {
		drift.ObserveDrift(d, time.Duration(i+1)*time.Second)
	}
	for _, p := range []struct {
		kw      string
		degrade quality.Degradation
	}{
		{"Memory", nil},
		{"CPULoad", quality.Exponential{HalfLife: 30 * time.Second}},
		{"Drift", drift},
		{"Café", quality.NewSelfCorrecting(quality.Binary{Lifetime: time.Hour})},
		{"İnode", nil},
	} {
		reg.Register(&provider.StaticProvider{KeywordName: p.kw, Values: provider.Attributes{{Name: "v", Value: "1"}}},
			provider.RegisterOptions{TTL: time.Hour, Degrade: p.degrade})
		for range 3 {
			if _, err := reg.Collect(context.Background(), []string{p.kw}, cache.Immediate, 0); err != nil {
				panic(err)
			}
		}
	}
	return &infoEngine{resource: "fuzz.resource", registry: reg}
})

// fuzzReports builds the reports spec describes: up to 16 reports
// separated by ';', each "keyword|name=value|name…". score, age and flags vary each
// report's Result; flags also pick the format (bits 0–1), the performance
// tag (bit 2) and missing keywords (bits 5–6).
func fuzzReports(spec string, score float64, age int64, flags uint8) ([]provider.Report, []provider.DegradedKeyword, *xrsl.InfoRequest) {
	var reports []provider.Report
	if spec != "" {
		parts := strings.Split(spec, ";")
		for i, part := range parts[:min(len(parts), 16)] {
			fields := strings.Split(part, "|")
			rep := provider.Report{Keyword: fields[0]}
			for _, f := range fields[1:] {
				name, value, _ := strings.Cut(f, "=")
				rep.Attrs = append(rep.Attrs, provider.Attr{Name: name, Value: value})
			}
			rep.Result = cache.Result{
				Quality:   quality.Score(score / float64(i+1)),
				Age:       time.Duration(age) * time.Duration(i+1),
				FromCache: (flags>>3)&1 != uint8(i&1),
				Stale:     flags&0x10 != 0 && i%2 == 0,
			}
			reports = append(reports, rep)
		}
	}
	req := &xrsl.InfoRequest{
		Format:      [...]xrsl.Format{xrsl.FormatLDIF, xrsl.FormatXML, xrsl.FormatDSML, ""}[flags&3],
		Performance: flags&4 != 0,
	}
	var missing []provider.DegradedKeyword
	if flags&0x20 != 0 {
		missing = append(missing, provider.DegradedKeyword{Keyword: "Gone", Err: fmt.Errorf("provider %q: sensor offline", "Gone"), Stale: flags&0x40 != 0})
	}
	return reports, missing, req
}

// FuzzInfoAnswer holds the information miss path past the collect —
// entries, quality and performance attributes, filter, degradation
// marker, render — to the oracle above: byte-identical LDIF, XML and DSML
// bodies and the same empty, degraded and error results for fuzzed
// reports, keywords, attribute names, values and filters.
func FuzzInfoAnswer(f *testing.F) {
	type seed struct {
		spec, filter string
		score        float64
		age          int64
		flags        uint8
	}
	for _, s := range []seed{
		{"Memory|total=1024|free=512", "", 100, 0, 0},
		{"memory|Total=1|FREE=2;CPULOAD|load1=2;drift|x=y", "", 97.123456, int64(1500 * time.Millisecond), 1},
		{"Drift|a=1;Café|b=2;İNODE|c=3", "*:a*", 33.335, int64(time.Hour), 2},
		{"Memory|objectclaſſ=x|OBJECTCLASS=y|KW=z|Keyword=k|ReSoUrCe=r", "objectclaſſ", 50, 1, 3},
		{"İnode|i̇x=1|İx=2", "İ*", 0.005, -int64(time.Second), 4 | 8},
		{"Memory|total=1;CPULoad|load=2;Unknown|u=3", "nomatch*", 100, 12, 0x10 | 0x20},
		{"CPULoad|load=2", "*", -0.004999, int64(time.Millisecond), 0x20 | 0x40 | 4 | 2},
		{"", "", 0, 0, 0x20},
		{"", "", 0, 0, 0},
		{"Memory|=|k=\x00\xff", "*:", 1e300, 1<<62 + 12345, 7},
		{"Drift|v=1;Drift|v=2;Drift|v=3;Drift|v=4;Drift|v=5;Drift|v=6;Drift|v=7;Drift|v=8", "*:V", 99.995, 999999, 4 | 1},
	} {
		f.Add(s.spec, s.filter, s.score, s.age, s.flags)
	}
	e := oracleEngine()
	f.Fuzz(func(t *testing.T, spec, filter string, score float64, age int64, flags uint8) {
		reports, missing, req := fuzzReports(spec, score, age, flags)
		req.Filter = filter
		body, empty, degraded, err := e.answerReports(req, reports, missing)
		wbody, wempty, wdegraded, werr := oracleAnswerReports(e, req, reports, missing)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("error %v, oracle %v", err, werr)
		}
		if empty != wempty || degraded != wdegraded {
			t.Fatalf("empty, degraded = %v, %v; oracle %v, %v", empty, degraded, wempty, wdegraded)
		}
		if body != wbody {
			t.Fatalf("format %q body differs from the oracle's\n got: %q\nwant: %q", req.Format, body, wbody)
		}
	})
}

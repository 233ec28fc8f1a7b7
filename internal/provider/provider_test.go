package provider

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"infogram/internal/cache"
	"infogram/internal/clock"
	"infogram/internal/quality"
)

func TestParseOutputStructured(t *testing.T) {
	attrs := ParseOutput("total: 1024\nfree: 512\nused=512\n")
	if len(attrs) != 3 {
		t.Fatalf("attrs = %+v", attrs)
	}
	if attrs[0].Name != "total" || attrs[0].Value != "1024" {
		t.Errorf("attrs[0] = %+v", attrs[0])
	}
	if attrs[2].Name != "used" || attrs[2].Value != "512" {
		t.Errorf("attrs[2] = %+v", attrs[2])
	}
}

func TestParseOutputPlain(t *testing.T) {
	attrs := ParseOutput("Wed Jul 24 12:00:00 UTC 2002\n")
	if len(attrs) != 1 || attrs[0].Name != "output" {
		t.Fatalf("attrs = %+v", attrs)
	}
	multi := ParseOutput("file1\nfile2\nfile3\n")
	if len(multi) != 3 || multi[0].Name != "output.0" || multi[2].Value != "file3" {
		t.Errorf("multi = %+v", multi)
	}
}

func TestParseOutputMixed(t *testing.T) {
	attrs := ParseOutput("header line one\ncount: 3\n")
	if v, ok := attrs.Get("count"); !ok || v != "3" {
		t.Errorf("count = %q %v", v, ok)
	}
	if v, ok := attrs.Get("output"); !ok || v != "header line one" {
		t.Errorf("output = %q %v", v, ok)
	}
}

func TestParseOutputSkipsBadNames(t *testing.T) {
	// A "name" containing spaces is not structured.
	attrs := ParseOutput("not a name: value\n")
	if _, ok := attrs.Get("not a name"); ok {
		t.Error("space-containing name treated as structured")
	}
	if v, ok := attrs.Get("output"); !ok || v != "not a name: value" {
		t.Errorf("output = %q %v", v, ok)
	}
}

// TestNamespaced checks the paper's keyword namespacing as ReportEntries
// applies it: "total" from the Memory provider is "Memory:total", and the
// report's own attributes, which the provider cache shares, are untouched.
func TestNamespaced(t *testing.T) {
	attrs := Attributes{{Name: "total", Value: "1024"}, {Name: "free", Value: "512"}}
	entries := ReportEntries("r", []Report{{Keyword: "Memory", Attrs: attrs}})
	got := entries[0].Attrs[3:]
	if len(got) != 2 || got[0].Name != "Memory:total" || got[0].Value != "1024" ||
		got[1].Name != "Memory:free" || got[1].Value != "512" {
		t.Errorf("namespaced attrs = %+v", got)
	}
	if attrs[0].Name != "total" || attrs[1].Name != "free" {
		t.Errorf("ReportEntries mutated the report's Attrs: %+v", attrs)
	}
}

func TestExecProvider(t *testing.T) {
	p, err := NewExecProvider("Echo", "/bin/echo key: value")
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := p.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := attrs.Get("key"); !ok || v != "value" {
		t.Errorf("attrs = %+v", attrs)
	}
	if p.Source() != "exec:/bin/echo key: value" {
		t.Errorf("Source = %q", p.Source())
	}
}

func TestExecProviderDateU(t *testing.T) {
	// Table 1 row: "60 Date date -u".
	p, err := NewExecProvider("Date", "date -u")
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := p.Fetch(context.Background())
	if err != nil {
		t.Skipf("date not available: %v", err)
	}
	if len(attrs) == 0 {
		t.Error("date produced no attributes")
	}
}

func TestExecProviderFailure(t *testing.T) {
	p, err := NewExecProvider("Bad", "/nonexistent/binary")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Fetch(context.Background()); err == nil {
		t.Error("expected error")
	}
	if _, err := NewExecProvider("Empty", "   "); err == nil {
		t.Error("empty command accepted")
	}
}

func TestFileProvider(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "loadavg")
	if err := os.WriteFile(path, []byte("load1: 0.42\nload5: 0.36\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	p := NewFileProvider("Load", path)
	attrs, err := p.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := attrs.Get("load1"); v != "0.42" {
		t.Errorf("load1 = %q", v)
	}
	// Custom parser.
	p.Parse = func(content string) (Attributes, error) {
		return Attributes{{Name: "raw", Value: content}}, nil
	}
	attrs, err = p.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := attrs.Get("raw"); !ok {
		t.Error("custom parser not used")
	}
	// Missing file.
	if _, err := NewFileProvider("X", filepath.Join(dir, "missing")).Fetch(context.Background()); err == nil {
		t.Error("missing file fetch succeeded")
	}
}

func TestRuntimeProvider(t *testing.T) {
	attrs, err := RuntimeProvider{}.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cpus, ok := attrs.Get("cpus")
	if !ok {
		t.Fatal("no cpus attribute")
	}
	if n, err := strconv.Atoi(cpus); err != nil || n < 1 {
		t.Errorf("cpus = %q", cpus)
	}
	if len(RuntimeProvider{}.AttrSchemas()) == 0 {
		t.Error("runtime provider declares no schemas")
	}
}

func TestStaticProviderCopies(t *testing.T) {
	p := &StaticProvider{KeywordName: "S", Values: Attributes{{Name: "a", Value: "1"}}}
	attrs, err := p.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	attrs[0].Value = "mutated"
	again, _ := p.Fetch(context.Background())
	if again[0].Value != "1" {
		t.Error("StaticProvider shares its backing slice")
	}
}

func TestRegistryRegisterLookup(t *testing.T) {
	reg := NewRegistry(nil)
	reg.Register(&StaticProvider{KeywordName: "Memory"}, RegisterOptions{TTL: time.Second})
	reg.Register(&StaticProvider{KeywordName: "CPU"}, RegisterOptions{TTL: time.Second})

	if reg.Len() != 2 {
		t.Errorf("Len = %d", reg.Len())
	}
	if _, ok := reg.Lookup("memory"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := reg.Lookup("Disk"); ok {
		t.Error("unknown keyword found")
	}
	kws := reg.Keywords()
	if len(kws) != 2 || kws[0] != "Memory" || kws[1] != "CPU" {
		t.Errorf("Keywords = %v (registration order expected)", kws)
	}
}

func TestRegistryReplaceAndUnregister(t *testing.T) {
	reg := NewRegistry(nil)
	reg.Register(&StaticProvider{KeywordName: "K", Values: Attributes{{Name: "v", Value: "old"}}},
		RegisterOptions{TTL: time.Second})
	reg.Register(&StaticProvider{KeywordName: "K", Values: Attributes{{Name: "v", Value: "new"}}},
		RegisterOptions{TTL: time.Second})
	if reg.Len() != 1 {
		t.Fatalf("Len = %d after replace", reg.Len())
	}
	g, _ := reg.Lookup("K")
	attrs, err := g.UpdateState(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := attrs.Get("v"); v != "new" {
		t.Errorf("v = %q", v)
	}
	if !reg.Unregister("k") {
		t.Error("Unregister failed")
	}
	if reg.Unregister("k") {
		t.Error("double Unregister succeeded")
	}
	if reg.Len() != 0 || len(reg.Keywords()) != 0 {
		t.Error("registry not empty after unregister")
	}
}

func TestSystemInformationInterface(t *testing.T) {
	// The paper's interface methods behave as specified.
	clk := clock.NewFake(time.Unix(0, 0))
	reg := NewRegistry(clk)
	var n atomic.Int64
	p := NewFuncProvider("Counter", func(ctx context.Context) (Attributes, error) {
		return Attributes{{Name: "n", Value: strconv.FormatInt(n.Add(1), 10)}}, nil
	})
	g := reg.Register(p, RegisterOptions{
		TTL:     time.Second,
		Degrade: quality.Linear{Horizon: 2 * time.Second},
	})

	if g.Keyword() != "Counter" {
		t.Errorf("Keyword = %q", g.Keyword())
	}
	if g.TTL() != time.Second {
		t.Errorf("TTL = %v", g.TTL())
	}
	if g.Format() != "ldif" {
		t.Errorf("Format = %q", g.Format())
	}
	// querystate before any update: exception (error).
	if _, err := g.QueryState(); !errors.Is(err, cache.ErrNeverFetched) {
		t.Errorf("QueryState = %v", err)
	}
	if g.Validity() != 0 {
		t.Errorf("Validity before fetch = %v", g.Validity())
	}
	// updatestate blocks and returns.
	attrs, err := g.UpdateState(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := attrs.Get("n"); v != "1" {
		t.Errorf("n = %q", v)
	}
	// querystate now valid; ttl not expired.
	if _, err := g.QueryState(); err != nil {
		t.Errorf("QueryState after update: %v", err)
	}
	if g.Validity() != 100 {
		t.Errorf("Validity fresh = %v", g.Validity())
	}
	clk.Advance(time.Second)
	// Quality at age 1s with 2s horizon: 50.
	if v := g.Validity(); v != 50 {
		t.Errorf("Validity at 1s = %v", v)
	}
	clk.Advance(time.Second) // past TTL
	if _, err := g.QueryState(); !errors.Is(err, cache.ErrStale) {
		t.Errorf("QueryState stale = %v", err)
	}
	if st := g.AverageUpdateTime(); st.Count != 1 {
		t.Errorf("AverageUpdateTime count = %d", st.Count)
	}
}

func TestCollect(t *testing.T) {
	reg := NewRegistry(nil)
	reg.Register(&StaticProvider{KeywordName: "A", Values: Attributes{{Name: "x", Value: "1"}}},
		RegisterOptions{TTL: time.Second})
	reg.Register(&StaticProvider{KeywordName: "B", Values: Attributes{{Name: "y", Value: "2"}}},
		RegisterOptions{TTL: time.Second})

	// Explicit keywords, in request order.
	reports, err := reg.Collect(context.Background(), []string{"B", "A"}, cache.Cached, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0].Keyword != "B" || reports[1].Keyword != "A" {
		t.Errorf("reports = %+v", reports)
	}
	// All keywords (info=all) in registration order.
	reports, err = reg.Collect(context.Background(), nil, cache.Cached, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0].Keyword != "A" {
		t.Errorf("all reports = %+v", reports)
	}
	// Unknown keyword fails the whole request (all-or-nothing, §6.3).
	if _, err := reg.Collect(context.Background(), []string{"A", "Nope"}, cache.Cached, 0); err == nil {
		t.Error("unknown keyword did not fail")
	}
}

func TestSchema(t *testing.T) {
	reg := NewRegistry(nil)
	fp := NewFuncProvider("WithSchema", func(ctx context.Context) (Attributes, error) {
		return Attributes{{Name: "a", Value: "1"}}, nil
	})
	fp.Schemas = []AttrSchema{{Name: "a", Type: "int", Doc: "a doc"}}
	reg.Register(fp, RegisterOptions{
		TTL:     time.Second,
		Degrade: quality.Exponential{HalfLife: time.Second},
		Format:  "xml",
	})
	reg.Register(&StaticProvider{KeywordName: "Plain"}, RegisterOptions{TTL: 2 * time.Second})

	schema := reg.Schema()
	if len(schema) != 2 {
		t.Fatalf("schema = %+v", schema)
	}
	ks := schema[0]
	if ks.Keyword != "WithSchema" || ks.Format != "xml" || ks.TTL != time.Second {
		t.Errorf("ks = %+v", ks)
	}
	if ks.Degradation != "exponential(1s)" {
		t.Errorf("Degradation = %q", ks.Degradation)
	}
	if len(ks.Attributes) != 1 || ks.Attributes[0].Name != "a" {
		t.Errorf("Attributes = %+v", ks.Attributes)
	}
	if schema[1].Degradation != "" || len(schema[1].Attributes) != 0 {
		t.Errorf("plain schema = %+v", schema[1])
	}
}

func TestReportEntries(t *testing.T) {
	reports := []Report{{
		Keyword: "Memory",
		Attrs:   Attributes{{Name: "total", Value: "1024"}},
	}}
	entries := ReportEntries("hot.anl.gov", reports)
	if len(entries) != 1 {
		t.Fatal("no entries")
	}
	e := entries[0]
	if e.DN != "kw=Memory, resource=hot.anl.gov, o=grid" {
		t.Errorf("DN = %q", e.DN)
	}
	if v, _ := e.Get("objectclass"); v != ObjectClass {
		t.Errorf("objectclass = %q", v)
	}
	if v, _ := e.Get("Memory:total"); v != "1024" {
		t.Errorf("Memory:total = %q", v)
	}
}

// TestReportEntriesAllocs pins ReportEntries' allocation budget: one slice
// for the result, then three per entry — its DN, its attribute slice, and
// the one string its namespaced names are sliced from.
func TestReportEntriesAllocs(t *testing.T) {
	reports := make([]Report, 8)
	for i := range reports {
		attrs := make(Attributes, 12)
		for j := range attrs {
			attrs[j] = Attr{Name: fmt.Sprintf("g%dx%d", j%4, j), Value: "v"}
		}
		reports[i] = Report{Keyword: fmt.Sprintf("Kw%d", i), Attrs: attrs}
	}
	allocs := testing.AllocsPerRun(100, func() {
		entries := ReportEntries("bench.resource", reports)
		// The spare capacity holds the quality attributes the
		// information service appends without regrowing.
		for i := range entries {
			for range qualityAttrs {
				entries[i].Add("quality:x", "1")
			}
		}
	})
	if max := float64(1 + 3*len(reports)); allocs > max {
		t.Errorf("ReportEntries: %.0f allocs for %d entries, budget %.0f", allocs, len(reports), max)
	}
}

func TestRegisteredCacheStats(t *testing.T) {
	reg := NewRegistry(nil)
	g := reg.Register(&StaticProvider{KeywordName: "K"}, RegisterOptions{TTL: time.Hour})
	ctx := context.Background()
	if _, err := g.Get(ctx, cache.Cached, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Get(ctx, cache.Cached, 0); err != nil {
		t.Fatal(err)
	}
	st := g.CacheStats()
	if st.Execs != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestRegistryDigestGolden pins the snapshot trust gate's byte sequence —
// FNV-1a over sorted keyword, NUL, TTL little-endian — to the value the
// response cache and the GRIS computed (each with its own copy of this
// function) before the digest moved here: a cache snapshot written by an
// older build must still be recognized.
func TestRegistryDigestGolden(t *testing.T) {
	reg := NewRegistry(nil)
	for _, kw := range []struct {
		name string
		ttl  time.Duration
	}{{"Memory", 10 * time.Second}, {"CPULoad", time.Minute}, {"Disk", 0}} {
		reg.Register(NewFuncProvider(kw.name, func(ctx context.Context) (Attributes, error) {
			return nil, nil
		}), RegisterOptions{TTL: kw.ttl})
	}
	const golden = 0x5270698338d62c
	if got := reg.Digest(); got != golden {
		t.Fatalf("Digest() = %#x; want %#x", got, uint64(golden))
	}
	// Registration order and history are not part of the identity.
	reg.Unregister("Disk")
	reg.Register(NewFuncProvider("Disk", func(ctx context.Context) (Attributes, error) {
		return nil, nil
	}), RegisterOptions{TTL: 0})
	if got := reg.Digest(); got != golden {
		t.Fatalf("Digest() after re-registration = %#x; want %#x", got, uint64(golden))
	}
	reg.Unregister("Disk")
	if reg.Digest() == golden {
		t.Fatal("Digest() did not change with the population")
	}
}

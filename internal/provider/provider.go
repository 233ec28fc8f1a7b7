// Package provider implements the information-provider framework of paper
// §6.2: the SystemInformation interface, the three information sources the
// paper names — (a) system commands via runtime exec, (b) runtime
// introspection (load, memory, disk), (c) files such as the Linux proc
// file system — and a keyword registry with schema reflection (§6.4).
//
// A Provider produces raw attributes; Register binds it to a cache entry
// with TTL, delay, degradation, and performance tracking, yielding a
// Registered that satisfies the paper's SystemInformation interface
// (querystate, updatestate, ttl, validity, setdelay, format,
// getaverageupdatetime).
package provider

import (
	"context"
	"fmt"
	"strings"
	"time"

	"infogram/internal/cache"
	"infogram/internal/quality"
	"infogram/internal/telemetry"
)

// Attr is one attribute produced by a provider.
type Attr struct {
	Name  string
	Value string
}

// Attributes is an ordered attribute list; order is preserved into LDIF
// and XML output.
type Attributes []Attr

// Get returns the first value of name (case-insensitive).
func (as Attributes) Get(name string) (string, bool) {
	for _, a := range as {
		if strings.EqualFold(a.Name, name) {
			return a.Value, true
		}
	}
	return "", false
}

// Provider is a raw information source for one keyword.
type Provider interface {
	// Keyword identifies the provider in configuration and queries.
	Keyword() string
	// Fetch obtains a fresh attribute set. It corresponds to the actual
	// work behind the paper's updateState.
	Fetch(ctx context.Context) (Attributes, error)
	// Source describes where the information comes from, for reflection
	// output (e.g. "exec:/sbin/sysinfo.exe -mem").
	Source() string
}

// AttrSchema describes one attribute for reflection.
type AttrSchema struct {
	Name string
	Type string // "string", "int", "float", "duration"
	Doc  string
}

// SchemaProvider is optionally implemented by providers that can describe
// their attributes ahead of time; reflection output includes them.
type SchemaProvider interface {
	Provider
	AttrSchemas() []AttrSchema
}

// SystemInformation is the Go rendering of the paper's Java interface:
//
//	class SystemInformation interface {
//	    String getkeyword();         Object querystate();
//	    Object updatestate();        Time ttl();
//	    int validity();              void setdelay(Time);
//	    String setformat(Format);    Time getaverageupdatetime();
//	}
type SystemInformation interface {
	Keyword() string
	// QueryState is non-blocking and returns valid information only when
	// it has been queried before and the TTL has not expired; otherwise
	// it returns an error (the paper's exception).
	QueryState() (Attributes, error)
	// UpdateState blocks, refreshes the information, and returns it,
	// coalescing concurrent updates.
	UpdateState(ctx context.Context) (Attributes, error)
	TTL() time.Duration
	// Validity returns the current quality score of the cached value in
	// percent (the paper's int validity()).
	Validity() quality.Score
	SetDelay(d time.Duration)
	// Format returns the provider's preferred output format name.
	Format() string
	AverageUpdateTime() telemetry.HistogramSnapshot
}

// Registered binds a Provider to its cache entry and statistics; it is the
// unit the registry stores per keyword and implements SystemInformation.
type Registered struct {
	provider Provider
	entry    *cache.Entry
	// execTime times every provider execution, successful or failed. It is
	// private to the keyword and never exported to a telemetry registry.
	execTime *telemetry.Histogram
	ttl      time.Duration
	degrade  quality.Degradation
	format   string
}

var _ SystemInformation = (*Registered)(nil)

// Keyword returns the provider keyword.
func (g *Registered) Keyword() string { return g.provider.Keyword() }

// Source returns the provider source description.
func (g *Registered) Source() string { return g.provider.Source() }

// TTL returns the configured lifetime.
func (g *Registered) TTL() time.Duration { return g.ttl }

// Format returns the preferred output format ("ldif" by default).
func (g *Registered) Format() string { return g.format }

// SetDelay sets the minimum inter-execution delay.
func (g *Registered) SetDelay(d time.Duration) { g.entry.SetDelay(d) }

// AverageUpdateTime returns the execution-time statistics (the paper's
// getaverageupdatetime): Mean, and the StdDev §6.5 needs.
func (g *Registered) AverageUpdateTime() telemetry.HistogramSnapshot {
	return g.execTime.Snapshot()
}

// CacheStats exposes the underlying cache counters for experiments.
func (g *Registered) CacheStats() cache.Stats { return g.entry.Stats() }

// Degradation returns the attached degradation function, or nil.
func (g *Registered) Degradation() quality.Degradation { return g.degrade }

// QueryState implements the non-blocking read.
func (g *Registered) QueryState() (Attributes, error) {
	r, err := g.entry.Query()
	if err != nil {
		return nil, err
	}
	return r.Value.(Attributes), nil
}

// UpdateState implements the blocking refresh.
func (g *Registered) UpdateState(ctx context.Context) (Attributes, error) {
	r, err := g.entry.Update(ctx)
	if err != nil {
		return nil, err
	}
	return r.Value.(Attributes), nil
}

// Validity returns the quality score of the cached value now; 0 when the
// value has never been fetched.
func (g *Registered) Validity() quality.Score {
	r, err := g.entry.Query()
	if err == cache.ErrNeverFetched {
		return 0
	}
	return r.Quality
}

// StaleReport packages the entry's last stored value regardless of TTL,
// with Result.Stale marking a lapsed one. It never executes the provider —
// it is the fallback CollectDegraded reaches for when an execution just
// failed, preferring marked stale data over a hole in the answer. The
// second result is false when the provider has never produced a value.
func (g *Registered) StaleReport() (Report, bool) {
	r, ok := g.entry.StaleResult()
	if !ok {
		return Report{}, false
	}
	return Report{Keyword: g.Keyword(), Attrs: r.Value.(Attributes), Result: r}, true
}

// Report is one keyword's query result, ready for rendering.
type Report struct {
	Keyword string
	Attrs   Attributes
	Result  cache.Result
}

// Get reads through the cache with the given mode and threshold and
// packages a Report.
func (g *Registered) Get(ctx context.Context, mode cache.Mode, threshold quality.Score) (Report, error) {
	r, err := g.entry.Get(ctx, mode, threshold)
	if err != nil {
		return Report{}, fmt.Errorf("provider %q: %w", g.Keyword(), err)
	}
	return Report{Keyword: g.Keyword(), Attrs: r.Value.(Attributes), Result: r}, nil
}

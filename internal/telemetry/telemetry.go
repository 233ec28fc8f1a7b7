// Package telemetry is the service-wide metrics and tracing layer: a
// registry of counters, gauges, and latency histograms that every tier of
// the InfoGram stack (wire, core, cache, gsi, scheduler, gram) records
// into, plus the request trace context threaded through the unified
// protocol path. It answers the operational questions the MDS performance
// studies ask of a deployed information service — request rates, latency
// distributions under load, per-component breakdowns — and, because a
// histogram keeps an exact sum and sum of squares, the paper's §6.5
// per-keyword mean and standard deviation (the "performance" tag) too.
//
// Metric types are nil-safe: calling Inc/Add/Observe on a nil metric is a
// no-op, so instrumented code needs no "is telemetry enabled" branches.
// The hot path is allocation-free — counters and gauges are single
// atomics, histograms use fixed log-spaced buckets with lock-striped
// shards selected by a per-P random source.
//
// The registry exposes its contents two ways: WritePrometheus renders the
// Prometheus text exposition format for an HTTP scrape endpoint, and
// Snapshot feeds the "selfmetrics" information provider so clients can ask
// InfoGram about InfoGram through an ordinary xRSL info query — the
// paper's unified-protocol claim applied to the service itself.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; all methods are safe on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The zero value is ready to
// use; all methods are safe on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram bucket layout: fixed log-spaced (power-of-two) duration
// buckets from 1µs to ~16.8s plus an overflow bucket. Fixed boundaries
// keep Observe allocation-free and make exposition deterministic.
const (
	// NumBuckets is the number of finite histogram buckets.
	NumBuckets = 25
	// bucketBase is the upper bound of the first bucket.
	bucketBase = time.Microsecond
	// histStripes shards the counters to spread write contention; must be
	// a power of two.
	histStripes = 8
)

// BucketBound returns the inclusive upper bound of finite bucket i.
func BucketBound(i int) time.Duration {
	return bucketBase << i
}

// bucketIndex maps a duration to its bucket: the smallest i with
// d <= BucketBound(i), or NumBuckets for the overflow bucket.
func bucketIndex(d time.Duration) int {
	if d <= bucketBase {
		return 0
	}
	us := uint64((d + bucketBase - 1) / bucketBase) // ceil to µs
	idx := bits.Len64(us - 1)                       // ceil(log2(us))
	if idx >= NumBuckets {
		return NumBuckets
	}
	return idx
}

// histStripe is one shard of a histogram, padded so adjacent stripes do
// not share cache lines under concurrent writers. sumSq holds the float64
// bits of the sum of squared durations in ns², updated by CAS so Observe
// stays lock-free.
type histStripe struct {
	counts [NumBuckets + 1]atomic.Uint64
	sumNS  atomic.Int64
	sumSq  atomic.Uint64
	_      [5]uint64
}

// addSq adds d² (in ns²) to the stripe's sum of squares.
func (s *histStripe) addSq(d time.Duration) {
	sq := float64(d) * float64(d)
	for {
		old := s.sumSq.Load()
		if s.sumSq.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+sq)) {
			return
		}
	}
}

// Exemplar links one histogram bucket to a concrete trace: the most
// recent traced observation that landed in that bucket.
type Exemplar struct {
	Trace TraceID
	Value time.Duration
}

// Histogram is a lock-free latency histogram with log-spaced buckets.
// Observe is allocation-free and safe on a nil receiver.
type Histogram struct {
	stripes [histStripes]histStripe
	// exemplars holds a recent traced observation per bucket (bound:
	// NumBuckets+1). They are surfaced via Snapshot and /debug/traces,
	// not the Prometheus 0.0.4 text format, which predates exemplars.
	exMu      sync.Mutex
	exemplars [NumBuckets + 1]struct {
		trace TraceRef
		value time.Duration
	}
}

// Observe records one duration sample. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	s := &h.stripes[rand.Uint64()&(histStripes-1)]
	s.counts[bucketIndex(d)].Add(1)
	s.sumNS.Add(int64(d))
	s.addSq(d)
}

// ObserveRef is Observe plus an exemplar: when trace is non-zero the
// sample's bucket remembers it, linking the latency distribution to a
// concrete trace in the trace store. An exemplar update that would wait
// for another is skipped: an exemplar is a recent sample, not the latest.
func (h *Histogram) ObserveRef(d time.Duration, trace TraceRef) {
	h.Observe(d)
	if h == nil || trace.IsZero() || !h.exMu.TryLock() {
		return
	}
	ex := &h.exemplars[bucketIndex(max(d, 0))]
	ex.trace, ex.value = trace, max(d, 0)
	h.exMu.Unlock()
}

// HistogramSnapshot is a point-in-time aggregate of a histogram.
type HistogramSnapshot struct {
	// Count is the total number of observations.
	Count uint64
	// Sum is the total of all observed durations.
	Sum time.Duration
	// SumSq is the total of all squared durations, in ns².
	SumSq float64
	// Buckets holds the per-bucket (non-cumulative) counts; index i covers
	// (BucketBound(i-1), BucketBound(i)], index NumBuckets is overflow.
	Buckets [NumBuckets + 1]uint64
	// Exemplars holds, per bucket, the latest traced observation (nil
	// when the bucket never saw one).
	Exemplars [NumBuckets + 1]*Exemplar
}

// Mean returns the average observed duration, or 0 with no observations.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// StdDev returns the sample standard deviation (n−1 denominator), or 0
// with fewer than two observations. Rounding can push the variance
// slightly below zero for near-constant data; it is clamped at 0.
func (s HistogramSnapshot) StdDev() time.Duration {
	if s.Count < 2 {
		return 0
	}
	n, sum := float64(s.Count), float64(s.Sum)
	v := (s.SumSq - sum*sum/n) / (n - 1)
	if v <= 0 {
		return 0
	}
	return time.Duration(math.Round(math.Sqrt(v)))
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the containing bucket; overflow-bucket samples report the largest
// finite bound.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	var cum float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		prev := cum
		cum += float64(n)
		if cum < target {
			continue
		}
		if i >= NumBuckets {
			return BucketBound(NumBuckets - 1)
		}
		lo := time.Duration(0)
		if i > 0 {
			lo = BucketBound(i - 1)
		}
		hi := BucketBound(i)
		frac := (target - prev) / float64(n)
		return lo + time.Duration(frac*float64(hi-lo))
	}
	return BucketBound(NumBuckets - 1)
}

// Snapshot aggregates all stripes (0-value snapshot on nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var out HistogramSnapshot
	if h == nil {
		return out
	}
	for i := range h.stripes {
		st := &h.stripes[i]
		out.Sum += time.Duration(st.sumNS.Load())
		out.SumSq += math.Float64frombits(st.sumSq.Load())
		for b := range st.counts {
			n := st.counts[b].Load()
			out.Buckets[b] += n
			out.Count += n
		}
	}
	h.exMu.Lock()
	defer h.exMu.Unlock()
	for b, ex := range h.exemplars {
		if !ex.trace.IsZero() {
			out.Exemplars[b] = &Exemplar{Trace: ex.trace.ID(), Value: ex.value}
		}
	}
	return out
}

// Label is one metric dimension (e.g. {verb submit}).
type Label struct {
	Key   string
	Value string
}

// Kind discriminates metric types in snapshots.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind as Prometheus spells it.
func (k Kind) String() string {
	if k < 0 || k > KindHistogram {
		return "unknown"
	}
	return [...]string{"counter", "gauge", "histogram"}[k]
}

// family groups all label variants of one metric name.
type family struct {
	name  string
	help  string
	kind  Kind
	order []string // label signatures in first-seen order
	bysig map[string]*instance
}

type instance struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named counters, gauges and histograms. Lookups are
// idempotent: asking for the same name and labels returns the same metric
// instance, so registration can happen at instrumentation-setup time and
// the hot path touch only atomics.
type Registry struct {
	mu       sync.Mutex
	names    []string
	byName   map[string]*family
	started  time.Time
	hasStart bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// MarkStart records the service start time, exposed as
// <name>_start_time_seconds-style uptime info by callers that want it.
func (r *Registry) MarkStart(t time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.started = t
	r.hasStart = true
	r.mu.Unlock()
}

func (r *Registry) instance(name, help string, kind Kind, labels []Label) *instance {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bysig: make(map[string]*instance)}
		r.byName[name] = f
		r.names = append(r.names, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	sig := renderLabels(labels)
	inst, ok := f.bysig[sig]
	if !ok {
		inst = &instance{labels: append([]Label(nil), labels...)}
		switch kind {
		case KindCounter:
			inst.c = &Counter{}
		case KindGauge:
			inst.g = &Gauge{}
		case KindHistogram:
			inst.h = &Histogram{}
		}
		f.bysig[sig] = inst
		f.order = append(f.order, sig)
	}
	return inst
}

// Counter returns (creating if needed) the counter name{labels}. A nil
// registry returns nil, which is itself a safe no-op metric.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.instance(name, help, KindCounter, labels).c
}

// Gauge returns (creating if needed) the gauge name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.instance(name, help, KindGauge, labels).g
}

// Histogram returns (creating if needed) the histogram name{labels}.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.instance(name, help, KindHistogram, labels).h
}

// Point is one metric instance in a snapshot.
type Point struct {
	Name   string
	Help   string
	Labels []Label
	Kind   Kind
	// Value holds counter/gauge values.
	Value int64
	// Hist holds histogram aggregates (histograms only).
	Hist HistogramSnapshot
}

// Snapshot returns every metric in registration order; label variants of a
// family keep their first-seen order.
func (r *Registry) Snapshot() []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Point
	for _, name := range r.names {
		f := r.byName[name]
		for _, sig := range f.order {
			inst := f.bysig[sig]
			p := Point{Name: name, Help: f.help, Labels: inst.labels, Kind: f.kind}
			switch f.kind {
			case KindCounter:
				p.Value = inst.c.Value()
			case KindGauge:
				p.Value = inst.g.Value()
			case KindHistogram:
				p.Hist = inst.h.Snapshot()
			}
			out = append(out, p)
		}
	}
	return out
}

// escapeLabel escapes a label value for the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, escapeLabel(l.Value))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Durations are reported in seconds, as the
// Prometheus conventions require.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	started, hasStart := r.started, r.hasStart
	r.mu.Unlock()
	var b strings.Builder
	prev := ""
	for _, p := range r.Snapshot() {
		if p.Name != prev {
			prev = p.Name
			if p.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", p.Name, p.Help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", p.Name, p.Kind)
		}
		if p.Kind != KindHistogram {
			fmt.Fprintf(&b, "%s%s %d\n", p.Name, renderLabels(p.Labels), p.Value)
			continue
		}
		var cum uint64
		for i := 0; i <= NumBuckets; i++ {
			cum += p.Hist.Buckets[i]
			le := "+Inf"
			if i < NumBuckets {
				le = strconv.FormatFloat(BucketBound(i).Seconds(), 'g', -1, 64)
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", p.Name, renderLabels(p.Labels, Label{"le", le}), cum)
		}
		fmt.Fprintf(&b, "%s_sum%s %s\n", p.Name, renderLabels(p.Labels),
			strconv.FormatFloat(p.Hist.Sum.Seconds(), 'g', -1, 64))
		fmt.Fprintf(&b, "%s_count%s %d\n", p.Name, renderLabels(p.Labels), p.Hist.Count)
	}
	if hasStart {
		fmt.Fprintf(&b, "# TYPE infogram_start_time_seconds gauge\ninfogram_start_time_seconds %d\n", started.Unix())
	}
	_, err := io.WriteString(w, b.String())
	return err
}

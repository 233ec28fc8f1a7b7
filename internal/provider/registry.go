package provider

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"infogram/internal/cache"
	"infogram/internal/clock"
	"infogram/internal/faultinject"
	"infogram/internal/quality"
	"infogram/internal/telemetry"
)

// UnknownKeywordError reports a query naming a keyword no provider
// serves. It is a typed error so response caches can recognize the
// negative result and cache it under a short TTL.
type UnknownKeywordError struct {
	Keyword string
}

func (e *UnknownKeywordError) Error() string {
	return fmt.Sprintf("provider: unknown keyword %q", e.Keyword)
}

// RegisterOptions configures a provider registration.
type RegisterOptions struct {
	// TTL is the cached lifetime of the keyword's information; 0 means
	// execute on every request (Table 1 semantics).
	TTL time.Duration
	// Delay is the minimum interval between provider executions.
	Delay time.Duration
	// Degrade optionally attaches a degradation function.
	Degrade quality.Degradation
	// Drift optionally measures relative change for self-correction.
	Drift func(old, new any) float64
	// Format is the preferred output format; "ldif" when empty.
	Format string
	// Clock defaults to the system clock.
	Clock clock.Clock
}

// Registry holds the key information providers of one service instance,
// keyed by keyword (case-insensitive), in registration order. It is the
// "system monitor service" of Figure 3: it controls initialization and
// caching of the results requested by clients.
type Registry struct {
	mu        sync.RWMutex
	order     []string
	byKeyword map[string]*Registered
	clk       clock.Clock
	tel       *telemetry.Registry

	// par bounds the collect fan-out worker pool; 0 selects
	// DefaultParallelism.
	par atomic.Int64

	// gen counts membership changes (Register/Unregister). Response
	// caches embed it in their keys, so a re-registration makes every
	// blob cached under the old membership unreachable in O(1) — stale
	// entries age out of the byte cache instead of being scanned for.
	gen atomic.Uint64

	// fanoutInflight / fanoutLatency are resolved once in SetTelemetry and
	// read under mu on the collect path.
	fanoutInflight *telemetry.Gauge
	fanoutLatency  *telemetry.Histogram
	// staleServed counts degraded collects answered with a marked stale
	// value instead of a hole. Nil-safe.
	staleServed *telemetry.Counter
}

// DefaultParallelism is the fan-out bound used when none is configured.
// Providers block on exec, file, and network I/O rather than CPU, so the
// pool is scaled a factor above GOMAXPROCS.
func DefaultParallelism() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return n
}

// Parallelism returns the effective collect fan-out bound.
func (r *Registry) Parallelism() int {
	if n := r.par.Load(); n > 0 {
		return int(n)
	}
	return DefaultParallelism()
}

// SetParallelism bounds the worker pool used to fan keyword retrievals
// out across providers. 1 forces serial collection; values <= 0 restore
// DefaultParallelism. Safe to call while collects are running — in-flight
// fan-outs keep the bound they started with.
func (r *Registry) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	r.par.Store(int64(n))
}

// NewRegistry returns an empty registry using the given clock (nil for the
// system clock).
func NewRegistry(clk clock.Clock) *Registry {
	if clk == nil {
		clk = clock.System
	}
	return &Registry{
		byKeyword: make(map[string]*Registered),
		clk:       clk,
	}
}

// SetTelemetry attaches a telemetry registry: every provider's cache entry
// — already registered or registered later — feeds per-keyword hit, miss,
// and eviction counters into it. The owning service calls this once at
// construction; providers registered earlier (e.g. from a configuration
// file loaded before the service existed) are retrofitted.
func (r *Registry) SetTelemetry(tel *telemetry.Registry) {
	r.mu.Lock()
	r.tel = tel
	r.fanoutInflight = tel.Gauge("infogram_collect_parallel_inflight",
		"provider retrievals currently executing inside a parallel collect fan-out")
	r.fanoutLatency = tel.Histogram("infogram_collect_fanout_duration_seconds",
		"wall-clock latency of one multi-keyword parallel collect fan-out")
	r.staleServed = tel.Counter("infogram_stale_served_total",
		"degraded collects answered with the last known value, marked stale")
	regs := make([]*Registered, 0, len(r.order))
	for _, k := range r.order {
		regs = append(regs, r.byKeyword[k])
	}
	r.mu.Unlock()
	for _, g := range regs {
		g.entry.SetTelemetry(cacheCounters(tel, g.Keyword()))
	}
}

// cacheCounters builds the per-keyword cache counter set.
func cacheCounters(tel *telemetry.Registry, keyword string) cache.Counters {
	if tel == nil {
		return cache.Counters{}
	}
	kw := telemetry.Label{Key: "keyword", Value: strings.ToLower(keyword)}
	return cache.Counters{
		Hits:      tel.Counter("infogram_cache_hits_total", "information reads served from a provider cache", kw),
		Misses:    tel.Counter("infogram_cache_misses_total", "information reads that executed the provider", kw),
		Evictions: tel.Counter("infogram_cache_evictions_total", "cached provider values superseded by a fresh execution", kw),
	}
}

// Register binds p under its keyword. Re-registering a keyword replaces
// the previous provider (used by configuration hot-reload).
func (r *Registry) Register(p Provider, opts RegisterOptions) *Registered {
	if opts.Clock == nil {
		opts.Clock = r.clk
	}
	if opts.Format == "" {
		opts.Format = "ldif"
	}
	reg := &Registered{
		provider: p,
		execTime: &telemetry.Histogram{},
		ttl:      opts.TTL,
		degrade:  opts.Degrade,
		format:   opts.Format,
	}
	if opts.Degrade != nil {
		reg.degradeName = opts.Degrade.Name()
	}
	r.mu.RLock()
	tel := r.tel
	r.mu.RUnlock()
	reg.entry = cache.NewEntry(cache.Options{
		TTL:       opts.TTL,
		Delay:     opts.Delay,
		Degrade:   opts.Degrade,
		Drift:     opts.Drift,
		Series:    reg.execTime,
		Telemetry: cacheCounters(tel, p.Keyword()),
		Clock:     opts.Clock,
	}, func(ctx context.Context) (any, error) {
		attrs, err := p.Fetch(ctx)
		if err != nil {
			return nil, err
		}
		return attrs, nil
	})

	key := strings.ToLower(p.Keyword())
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.byKeyword[key]; !exists {
		r.order = append(r.order, key)
	}
	r.byKeyword[key] = reg
	r.gen.Add(1)
	return reg
}

// Generation counts membership changes: it advances on every Register
// and successful Unregister. Response caches key blobs by generation so
// provider churn invalidates them without scanning.
func (r *Registry) Generation() uint64 { return r.gen.Load() }

// Digest fingerprints the provider population — sorted keywords and their
// TTLs, FNV-1a — so a cache snapshot taken under one population is never
// trusted by a server configured with another. The generation counter
// alone cannot carry this: it restarts at the same value for any
// same-length registration sequence.
func (r *Registry) Digest() uint64 {
	kws := r.Keywords()
	sort.Strings(kws)
	h := fnv.New64a()
	for _, kw := range kws {
		h.Write([]byte(kw))
		var ttl [9]byte // NUL separator, then the TTL little-endian
		if g, ok := r.Lookup(kw); ok {
			binary.LittleEndian.PutUint64(ttl[1:], uint64(g.TTL()))
		}
		h.Write(ttl[:])
	}
	return h.Sum64()
}

// Unregister removes a keyword; it reports whether it existed.
func (r *Registry) Unregister(keyword string) bool {
	key := strings.ToLower(keyword)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byKeyword[key]; !ok {
		return false
	}
	delete(r.byKeyword, key)
	for i, k := range r.order {
		if k == key {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.gen.Add(1)
	return true
}

// foldedKeywordMax is the longest ASCII keyword Lookup folds on the
// stack; a longer one takes the strings.ToLower path.
const foldedKeywordMax = 64

// Lookup finds the registration for keyword (case-insensitive). An ASCII
// keyword is folded into a stack buffer, so the lookup allocates nothing;
// any other keyword is lower-cased with strings.ToLower, as Register
// lower-cases every key.
func (r *Registry) Lookup(keyword string) (*Registered, bool) {
	var buf [foldedKeywordMax]byte
	n := 0
	if len(keyword) <= len(buf) {
		for ; n < len(keyword); n++ {
			c := keyword[n]
			if c >= utf8.RuneSelf {
				break
			}
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf[n] = c
		}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var g *Registered
	var ok bool
	if n == len(keyword) {
		g, ok = r.byKeyword[string(buf[:n])]
	} else {
		g, ok = r.byKeyword[strings.ToLower(keyword)]
	}
	return g, ok
}

// Keywords returns the registered keywords in registration order, using
// each provider's declared spelling.
func (r *Registry) Keywords() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.order))
	for _, k := range r.order {
		out = append(out, r.byKeyword[k].Keyword())
	}
	return out
}

// Len returns the number of registered providers.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byKeyword)
}

// Collect queries the named keywords (or all, when keywords is empty)
// through the cache with the given mode and threshold. A keyword the
// cache answers without executing its provider is read on the calling
// goroutine; the executions fan out across a worker pool bounded by
// SetParallelism, so slow providers overlap instead of queueing. Results
// are in request order either way. Querying an unknown keyword fails the
// whole request, the all-or-nothing semantics of §6.3 — as does any
// provider failure, in which case the error of the earliest failing
// keyword in request order is returned.
func (r *Registry) Collect(ctx context.Context, keywords []string, mode cache.Mode, threshold quality.Score) ([]Report, error) {
	regs, err := r.resolve(keywords)
	if err != nil {
		return nil, err
	}
	outs := r.collectAll(ctx, regs, mode, threshold, 0)
	reports := make([]Report, len(outs))
	for i, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		reports[i] = o.rep
	}
	return reports, nil
}

// resolve maps keywords (or all registered keywords, when empty) to their
// registrations in request order. Unknown keywords fail before any
// provider executes, so an all-or-nothing request has no side effects.
func (r *Registry) resolve(keywords []string) ([]*Registered, error) {
	if len(keywords) == 0 {
		keywords = r.Keywords()
	}
	regs := make([]*Registered, len(keywords))
	for i, kw := range keywords {
		g, ok := r.Lookup(kw)
		if !ok {
			return nil, &UnknownKeywordError{Keyword: kw}
		}
		regs[i] = g
	}
	return regs, nil
}

// collectOutcome is one keyword's result slot.
type collectOutcome struct {
	rep Report
	err error
	// exec marks a keyword whose read executes its provider; only those
	// fan out.
	exec bool
}

// collectAll retrieves every registration. outs[i] always corresponds to
// regs[i], which is what preserves request order in the callers. A
// keyword its cache entry answers without an execution — fresh for mode
// and threshold, a Last read, or inside its inter-execution delay — is
// read on the calling goroutine: that read costs a lock and a copy, less
// than handing it to a worker. The keywords that must execute fan out
// over at most Parallelism workers, started before the inline reads so
// they overlap them; a single execution runs inline too. An entry that
// expires between the test and the read executes inline, once, as Get
// would anywhere. Cache single-flight coalescing makes concurrent
// Entry.Get on the same keyword safe, so no extra per-keyword locking is
// needed here.
func (r *Registry) collectAll(ctx context.Context, regs []*Registered, mode cache.Mode, threshold quality.Score, perTimeout time.Duration) []collectOutcome {
	outs := make([]collectOutcome, len(regs))
	execs := 0
	for i, g := range regs {
		if !g.entry.Answers(mode, threshold) {
			outs[i].exec = true
			execs++
		}
	}
	workers := min(r.Parallelism(), execs)
	if workers <= 1 {
		for i, g := range regs {
			outs[i].rep, outs[i].err = collectOne(ctx, g, mode, threshold, perTimeout)
		}
		return outs
	}

	r.mu.RLock()
	inflight, latency := r.fanoutInflight, r.fanoutLatency
	r.mu.RUnlock()
	start := r.clk.Now()

	// Sized to the executions, so queuing them never blocks the inline
	// reads behind a busy worker.
	next := make(chan int, execs)
	for i := range outs {
		if outs[i].exec {
			next <- i
		}
	}
	close(next)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				inflight.Inc()
				outs[i].rep, outs[i].err = collectOne(ctx, regs[i], mode, threshold, perTimeout)
				inflight.Dec()
			}
		}()
	}
	for i, g := range regs {
		if !outs[i].exec {
			outs[i].rep, outs[i].err = collectOne(ctx, g, mode, threshold, perTimeout)
		}
	}
	wg.Wait()
	latency.Observe(r.clk.Since(start))
	return outs
}

// DegradedKeyword records a keyword whose provider failed or timed out
// during a degraded collect.
type DegradedKeyword struct {
	Keyword string
	Err     error
	// Stale is true when a previously cached value was served in the
	// keyword's place, marked stale, instead of omitting it entirely.
	Stale bool
}

// CollectDegraded is Collect with partial-result degradation: each
// keyword's retrieval is bounded by perTimeout (0 means unbounded, though
// the caller's context still applies) and a provider that fails or blows
// its timeout becomes a DegradedKeyword entry instead of failing the whole
// request. Executions fan out like Collect's, so one hung provider costs
// the query perTimeout once instead of serializing behind every healthy
// keyword; both the reports and the degraded list stay in request order.
// Unknown keywords remain all-or-nothing errors — they indicate a
// malformed query, not a degraded resource.
func (r *Registry) CollectDegraded(ctx context.Context, keywords []string, mode cache.Mode, threshold quality.Score, perTimeout time.Duration) ([]Report, []DegradedKeyword, error) {
	regs, err := r.resolve(keywords)
	if err != nil {
		return nil, nil, err
	}
	outs := r.collectAll(ctx, regs, mode, threshold, perTimeout)
	reports := make([]Report, 0, len(outs))
	var degraded []DegradedKeyword
	for i, o := range outs {
		if o.err != nil {
			// Provider outage: prefer the last known value, marked stale,
			// over a hole in the answer. The keyword still appears in the
			// degraded list (so the response says why the data is old) and
			// the degraded status keeps the answer out of response caches.
			if rep, ok := regs[i].StaleReport(); ok {
				reports = append(reports, rep)
				degraded = append(degraded, DegradedKeyword{Keyword: regs[i].Keyword(), Err: o.err, Stale: true})
				r.staleServed.Inc()
				continue
			}
			degraded = append(degraded, DegradedKeyword{Keyword: regs[i].Keyword(), Err: o.err})
			continue
		}
		reports = append(reports, o.rep)
	}
	return reports, degraded, nil
}

// collectOne retrieves one keyword under its per-provider deadline. A
// traced request records each provider as a "provider.collect" span, so
// the fan-out's per-keyword costs decompose in the trace tree.
func collectOne(ctx context.Context, g *Registered, mode cache.Mode, threshold quality.Score, perTimeout time.Duration) (Report, error) {
	ctx, sp := telemetry.StartSpan(ctx, "provider.collect")
	sp.SetAttr("keyword", g.Keyword())
	rep, err := collectProvider(ctx, g, mode, threshold, perTimeout)
	if err != nil {
		sp.Fail(err.Error())
	}
	sp.End()
	return rep, err
}

func collectProvider(ctx context.Context, g *Registered, mode cache.Mode, threshold quality.Score, perTimeout time.Duration) (Report, error) {
	if perTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, perTimeout)
		defer cancel()
	}
	if _, err := faultinject.Eval(ctx, faultinject.ProviderCollect); err != nil {
		return Report{}, err
	}
	return g.Get(ctx, mode, threshold)
}

// KeywordSchema is the reflection record for one keyword (paper §6.4: the
// schema query "returns a hierarchical schema that contains all objects
// associated with the keywords and lists properties of their attributes").
type KeywordSchema struct {
	Keyword     string
	Source      string
	TTL         time.Duration
	Format      string
	Degradation string
	Attributes  []AttrSchema
	// Performance is included when the provider has been executed, so
	// clients can see expected retrieval cost.
	Performance telemetry.HistogramSnapshot
}

// Schema returns the reflection records for all keywords in registration
// order.
func (r *Registry) Schema() []KeywordSchema {
	r.mu.RLock()
	regs := make([]*Registered, 0, len(r.order))
	for _, k := range r.order {
		regs = append(regs, r.byKeyword[k])
	}
	r.mu.RUnlock()

	out := make([]KeywordSchema, 0, len(regs))
	for _, g := range regs {
		ks := KeywordSchema{
			Keyword:     g.Keyword(),
			Source:      g.Source(),
			TTL:         g.TTL(),
			Format:      g.Format(),
			Performance: g.AverageUpdateTime(),
			Degradation: g.degradeName,
		}
		if sp, ok := g.provider.(SchemaProvider); ok {
			ks.Attributes = sp.AttrSchemas()
		}
		out = append(out, ks)
	}
	return out
}

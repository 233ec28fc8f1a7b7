// Package loadgen is the open-loop load harness for the InfoGram service:
// it offers requests at a fixed arrival rate regardless of how fast the
// server answers, which is the load model a Grid service actually faces —
// the MDS performance studies ran concurrent-user curves against GRIS/GIIS
// precisely because a million users do not politely wait for each other's
// responses. A closed-loop driver (send, wait, send) self-throttles as the
// server slows down and therefore hides the collapse point; an open-loop
// driver keeps the offered rate constant, so when the server falls behind,
// queueing delay shows up in the measured latency instead of silently
// reducing the load.
//
// Latency is measured from each request's *scheduled* arrival time, not
// from when a connection became available, so connection-pool checkout
// wait — the client-side queue where overload first becomes visible — is
// inside the number (the coordinated-omission correction).
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"infogram/internal/core"
	"infogram/internal/gsi"
	"infogram/internal/telemetry"
)

// Mix is the per-verb request mix, as relative weights. The zero Mix is
// replaced by DefaultMix.
type Mix struct {
	Ping   int
	Info   int
	Submit int
	Status int
}

// DefaultMix approximates an information-service-heavy workload.
var DefaultMix = Mix{Ping: 6, Info: 3, Submit: 0, Status: 1}

// total sums the weights.
func (m Mix) total() int { return m.Ping + m.Info + m.Submit + m.Status }

// String renders the mix in the flag syntax.
func (m Mix) String() string {
	return fmt.Sprintf("ping=%d,info=%d,submit=%d,status=%d", m.Ping, m.Info, m.Submit, m.Status)
}

// ParseMix parses "ping=6,info=3,submit=0,status=1"; omitted verbs weigh
// zero.
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("loadgen: mix element %q must be verb=weight", part)
		}
		w, err := strconv.Atoi(v)
		if err != nil || w < 0 {
			return m, fmt.Errorf("loadgen: mix weight %q must be a non-negative integer", v)
		}
		switch strings.ToLower(k) {
		case "ping":
			m.Ping = w
		case "info":
			m.Info = w
		case "submit":
			m.Submit = w
		case "status":
			m.Status = w
		default:
			return m, fmt.Errorf("loadgen: unknown mix verb %q (ping, info, submit, status)", k)
		}
	}
	if m.total() <= 0 {
		return m, fmt.Errorf("loadgen: mix %q has no positive weight", s)
	}
	return m, nil
}

// schedule expands the mix into one deterministic cycle of verbs, spread
// so a 6:3:1 mix interleaves rather than clustering (largest-remainder
// round-robin). Determinism matters: two runs at the same rate offer the
// same byte-for-byte sequence, so curves are comparable.
func (m Mix) schedule() []string {
	type slot struct {
		verb   string
		weight int
		credit float64
	}
	slots := []slot{
		{"ping", m.Ping, 0},
		{"info", m.Info, 0},
		{"submit", m.Submit, 0},
		{"status", m.Status, 0},
	}
	total := m.total()
	out := make([]string, 0, total)
	for len(out) < total {
		best := -1
		for i := range slots {
			slots[i].credit += float64(slots[i].weight) / float64(total)
			if slots[i].weight > 0 && (best < 0 || slots[i].credit > slots[best].credit) {
				best = i
			}
		}
		slots[best].credit--
		out = append(out, slots[best].verb)
	}
	return out
}

// Config parameterizes one open-loop run.
type Config struct {
	// Addr is the InfoGram service address.
	Addr string
	// Targets, when non-empty, spreads the offered load round-robin across
	// several service addresses (N gatekeepers, or N cluster proxies) with
	// an independent connection pool per target; Addr is ignored. Status
	// polls are routed back to the target that accepted the job, since
	// direct multi-target runs have no routing tier to find it.
	Targets []string
	// Cred/Trust authenticate the generated clients.
	Cred  *gsi.Credential
	Trust *gsi.TrustStore
	// Rate is the offered arrival rate in requests per second.
	Rate float64
	// Duration is how long arrivals are offered; the run then drains
	// outstanding requests (bounded by RequestTimeout).
	Duration time.Duration
	// Warmup, when positive, offers arrivals at the configured rate for
	// this long before measurement begins. Warmup requests heat the
	// connection pool and the server's caches but are excluded from every
	// reported number: counters, latency quantiles, and the cache hit-ratio
	// delta (whose baseline is probed after the warmup drains). Without it,
	// a short keyed run measures mostly compulsory misses.
	Warmup time.Duration
	// Mix is the per-verb weight mix; zero selects DefaultMix.
	Mix Mix
	// PoolSize bounds the connection pool (default 16). The pool is the
	// client-side queue: when the server slows down, checkout wait grows,
	// and because latency is measured from the scheduled arrival it is
	// part of the reported number.
	PoolSize int
	// RequestTimeout bounds each request, checkout wait included
	// (default 5s). A request that cannot finish inside it counts as an
	// error — in an open-loop world, an answer that late is a failure.
	RequestTimeout time.Duration
	// MaxOutstanding caps concurrently outstanding requests as a local
	// safety valve (default 4096): arrivals beyond it are counted as
	// overrun instead of spawned, so a collapsed server exhausts the
	// budget rather than the harness's memory.
	MaxOutstanding int
	// InfoXRSL is the information query submitted for "info" arrivals
	// (default "&(info=Runtime)").
	InfoXRSL string
	// Keys, when positive, switches "info" arrivals to keyed queries: each
	// arrival draws a key from [0, Keys) and issues a filter string unique
	// to that key, so the server's response cache faces a realistic keyed
	// population instead of one endlessly repeated query.
	Keys int
	// Zipf is the skew exponent for the key draw (Zipfian when > 1,
	// uniform otherwise). The draw is deterministically seeded: two runs
	// at the same settings offer the same key sequence.
	Zipf float64
	// InfoKeyword is the keyword keyed queries target (default "Runtime").
	InfoKeyword string
	// JobXRSL is the job submitted for "submit" arrivals (required when
	// the mix weights submit).
	JobXRSL string
	// DisableMux forces one-request-at-a-time connections.
	DisableMux bool
}

// Report is the outcome of one run, JSON-shaped for the bench harness.
type Report struct {
	Rate     float64 `json:"rate"`
	Duration float64 `json:"duration_s"`
	Warmup   float64 `json:"warmup_s,omitempty"`
	Mix      string  `json:"mix"`

	Offered   int64 `json:"offered"`
	OK        int64 `json:"ok"`
	Rejected  int64 `json:"rejected"`
	Errors    int64 `json:"errors"`
	Overrun   int64 `json:"overrun"`
	Contacts  int64 `json:"jobs_submitted"`
	ShedQuota int64 `json:"shed_quota"`
	ShedOver  int64 `json:"shed_overload"`
	ShedBack  int64 `json:"shed_backlog"`

	// Goodput is completed-OK per second of offered time.
	Goodput float64 `json:"goodput_rps"`

	// Keyed-mode fields (Keys > 0): the key population, its skew, and the
	// server-side response-cache effectiveness over the run, read as
	// selfmetrics counter deltas.
	Keys        int     `json:"keys,omitempty"`
	Zipf        float64 `json:"zipf,omitempty"`
	CacheHits   int64   `json:"cache_hits,omitempty"`
	CacheMisses int64   `json:"cache_misses,omitempty"`
	HitRatio    float64 `json:"cache_hit_ratio,omitempty"`

	P50us  int64 `json:"p50_us"`
	P90us  int64 `json:"p90_us"`
	P99us  int64 `json:"p99_us"`
	P999us int64 `json:"p999_us"`
	Meanus int64 `json:"mean_us"`
}

// String renders the human-facing summary.
func (r Report) String() string {
	s := fmt.Sprintf(
		"rate=%.0f/s dur=%.0fs offered=%d ok=%d rejected=%d (quota=%d overload=%d backlog=%d) errors=%d overrun=%d goodput=%.1f/s p50=%s p90=%s p99=%s p99.9=%s",
		r.Rate, r.Duration, r.Offered, r.OK, r.Rejected, r.ShedQuota, r.ShedOver, r.ShedBack,
		r.Errors, r.Overrun, r.Goodput,
		time.Duration(r.P50us)*time.Microsecond, time.Duration(r.P90us)*time.Microsecond,
		time.Duration(r.P99us)*time.Microsecond, time.Duration(r.P999us)*time.Microsecond)
	if r.Warmup > 0 {
		s = fmt.Sprintf("warmup=%.0fs ", r.Warmup) + s
	}
	if r.Keys > 0 {
		s += fmt.Sprintf(" keys=%d zipf=%.2f cache_hits=%d cache_misses=%d hit_ratio=%.3f",
			r.Keys, r.Zipf, r.CacheHits, r.CacheMisses, r.HitRatio)
	}
	return s
}

// Generator runs open-loop load against one or more services.
type Generator struct {
	cfg   Config
	pools []*core.Pool // one per target; a single-address run has one
	hist  *telemetry.Histogram
	// rng/zipf drive the keyed-query draw; only the arrival loop touches
	// them, and they are seeded deterministically.
	rng  *rand.Rand
	zipf *rand.Zipf

	offered  atomic.Int64
	ok       atomic.Int64
	rejected atomic.Int64
	errs     atomic.Int64
	overrun  atomic.Int64
	inflight atomic.Int64
	shed     [3]atomic.Int64 // quota, overload, backlog

	mu       sync.Mutex
	contacts []submitted
	statusN  int
}

// submitted remembers which target accepted a job, so status polls can
// go back to it in direct multi-target runs.
type submitted struct {
	contact string
	pool    int
}

// shedIndex maps a REJECT scope to its counter slot.
func shedIndex(scope string) int {
	switch scope {
	case "quota":
		return 0
	case "overload":
		return 1
	default:
		return 2
	}
}

// New builds a generator; Run may be called once.
func New(cfg Config) (*Generator, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: rate must be positive")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: duration must be positive")
	}
	if cfg.Mix.total() <= 0 {
		cfg.Mix = DefaultMix
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 16
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 4096
	}
	if cfg.InfoXRSL == "" {
		cfg.InfoXRSL = "&(info=Runtime)"
	}
	if cfg.InfoKeyword == "" {
		cfg.InfoKeyword = "Runtime"
	}
	if cfg.Mix.Submit > 0 && cfg.JobXRSL == "" {
		return nil, fmt.Errorf("loadgen: mix weights submit but no job xRSL is configured")
	}
	targets := cfg.Targets
	if len(targets) == 0 {
		targets = []string{cfg.Addr}
	}
	reg := telemetry.NewRegistry()
	g := &Generator{
		cfg:  cfg,
		hist: reg.Histogram("loadgen_latency_seconds", "scheduled-arrival-to-completion latency"),
	}
	for _, addr := range targets {
		g.pools = append(g.pools, core.NewPool(addr, cfg.Cred, cfg.Trust, core.PoolOptions{
			Size: cfg.PoolSize,
			Client: core.Options{
				RequestTimeout: cfg.RequestTimeout,
				DisableMux:     cfg.DisableMux,
			},
		}))
	}
	if cfg.Keys > 0 {
		g.rng = rand.New(rand.NewSource(42))
		if cfg.Zipf > 1 {
			g.zipf = rand.NewZipf(g.rng, cfg.Zipf, 1, uint64(cfg.Keys-1))
		}
	}
	return g, nil
}

// keyedQuery draws the next key and renders its distinct info query: the
// filter string embeds the key, so every key occupies its own slot in the
// server's response cache.
func (g *Generator) keyedQuery() string {
	var k uint64
	if g.zipf != nil {
		k = g.zipf.Uint64()
	} else {
		k = uint64(g.rng.Intn(g.cfg.Keys))
	}
	return fmt.Sprintf("&(info=%s)(filter=\"key%08d*\")", g.cfg.InfoKeyword, k)
}

// cacheCounters sums the response-cache counters across every target,
// read through the selfmetrics provider — the harness measures hit ratio
// the same way any client would, over the wire. probes reports how many
// targets answered; each answering probe is itself one cache miss
// (selfmetrics is never cached), which the caller subtracts.
func (g *Generator) cacheCounters(ctx context.Context) (hits, misses int64, probes int) {
	for _, pool := range g.pools {
		h, m, ok := g.poolCacheCounters(ctx, pool)
		if !ok {
			continue
		}
		hits += h
		misses += m
		probes++
	}
	return hits, misses, probes
}

func (g *Generator) poolCacheCounters(ctx context.Context, pool *core.Pool) (hits, misses int64, ok bool) {
	cctx, cancel := context.WithTimeout(ctx, g.cfg.RequestTimeout)
	defer cancel()
	client, err := pool.Checkout(cctx)
	if err != nil {
		return 0, 0, false
	}
	res, err := client.QueryRawContext(cctx, `&(info=selfmetrics)(filter="selfmetrics:infogram_bytecache_*")`)
	if err != nil {
		pool.Discard(client)
		return 0, 0, false
	}
	pool.Checkin(client)
	for _, e := range res.Entries {
		if v, found := e.Get("selfmetrics:infogram_bytecache_hits_total"); found {
			hits, _ = strconv.ParseInt(v, 10, 64)
			ok = true
		}
		if v, found := e.Get("selfmetrics:infogram_bytecache_misses_total"); found {
			misses, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	return hits, misses, ok
}

// offer runs one open-loop arrival phase for dur and drains it. record
// selects whether outcomes land in the run's counters and histogram — the
// warmup phase offers identical load but leaves every number untouched.
func (g *Generator) offer(ctx context.Context, verbs []string, dur time.Duration, record bool) time.Duration {
	interval := float64(time.Second) / g.cfg.Rate
	start := time.Now()
	end := start.Add(dur)

	var wg sync.WaitGroup
	for n := int64(0); ; n++ {
		sched := start.Add(time.Duration(float64(n) * interval))
		if sched.After(end) || ctx.Err() != nil {
			break
		}
		if d := time.Until(sched); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if record {
			g.offered.Add(1)
		}
		// The safety valve: an open-loop harness must not let a collapsed
		// server turn into unbounded goroutine growth on the client.
		if g.inflight.Load() >= int64(g.cfg.MaxOutstanding) {
			if record {
				g.overrun.Add(1)
			}
			continue
		}
		g.inflight.Add(1)
		wg.Add(1)
		verb := verbs[n%int64(len(verbs))]
		query := g.cfg.InfoXRSL
		if verb == "info" && g.cfg.Keys > 0 {
			// Drawn in the arrival loop so the key sequence is a pure
			// function of the seed, independent of completion order.
			query = g.keyedQuery()
		}
		// Targets are walked round-robin by arrival index, so a 2-node run
		// offers each node exactly half the load in the same deterministic
		// order every run.
		poolIdx := int(n % int64(len(g.pools)))
		go func() {
			defer wg.Done()
			defer g.inflight.Add(-1)
			g.one(ctx, verb, query, poolIdx, sched, record)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// Run offers arrivals for the configured duration, drains, and reports.
// The context cancels the run early (the partial report is still valid).
func (g *Generator) Run(ctx context.Context) Report {
	defer func() {
		for _, pool := range g.pools {
			pool.Close()
		}
	}()
	verbs := g.cfg.Mix.schedule()

	if g.cfg.Warmup > 0 {
		g.offer(ctx, verbs, g.cfg.Warmup, false)
	}
	// The hit-ratio baseline is read after the warmup drains, so warmup
	// fills (and their compulsory misses) stay out of the measured delta.
	var hits0, miss0 int64
	probed := false
	if g.cfg.Keys > 0 {
		var n int
		hits0, miss0, n = g.cacheCounters(ctx)
		probed = n > 0
	}
	elapsed := g.offer(ctx, verbs, g.cfg.Duration, true)

	snap := g.hist.Snapshot()
	offered := g.offered.Load()
	rep := Report{
		Rate:      g.cfg.Rate,
		Duration:  g.cfg.Duration.Seconds(),
		Warmup:    g.cfg.Warmup.Seconds(),
		Mix:       g.cfg.Mix.String(),
		Offered:   offered,
		OK:        g.ok.Load(),
		Rejected:  g.rejected.Load(),
		Errors:    g.errs.Load(),
		Overrun:   g.overrun.Load(),
		ShedQuota: g.shed[0].Load(),
		ShedOver:  g.shed[1].Load(),
		ShedBack:  g.shed[2].Load(),
		P50us:     snap.Quantile(0.50).Microseconds(),
		P90us:     snap.Quantile(0.90).Microseconds(),
		P99us:     snap.Quantile(0.99).Microseconds(),
		P999us:    snap.Quantile(0.999).Microseconds(),
		Meanus:    snap.Mean().Microseconds(),
	}
	g.mu.Lock()
	rep.Contacts = int64(len(g.contacts))
	g.mu.Unlock()
	if s := elapsed.Seconds(); s > 0 {
		rep.Goodput = float64(rep.OK) / s
	}
	if g.cfg.Keys > 0 {
		rep.Keys = g.cfg.Keys
		rep.Zipf = g.cfg.Zipf
		if probed {
			if h1, m1, n := g.cacheCounters(context.Background()); n > 0 {
				rep.CacheHits = h1 - hits0
				// Each closing probe's own lookup misses (selfmetrics is
				// never cached); keep them out of the workload's numbers.
				rep.CacheMisses = m1 - miss0 - int64(n)
				if rep.CacheMisses < 0 {
					rep.CacheMisses = 0
				}
				if total := rep.CacheHits + rep.CacheMisses; total > 0 {
					rep.HitRatio = float64(rep.CacheHits) / float64(total)
				}
			}
		}
	}
	return rep
}

// one executes a single arrival and classifies its outcome. Unrecorded
// (warmup) arrivals do the same work but touch no counters.
func (g *Generator) one(ctx context.Context, verb, query string, poolIdx int, sched time.Time, record bool) {
	var contact string
	if verb == "status" {
		// The contact is drawn before checkout so the poll can be routed
		// to the target that accepted the job.
		g.mu.Lock()
		if len(g.contacts) > 0 {
			s := g.contacts[g.statusN%len(g.contacts)]
			g.statusN++
			contact, poolIdx = s.contact, s.pool
		}
		g.mu.Unlock()
	}
	pool := g.pools[poolIdx]
	rctx, cancel := context.WithDeadline(ctx, sched.Add(g.cfg.RequestTimeout))
	defer cancel()
	client, err := pool.Checkout(rctx)
	if err != nil {
		if record {
			g.errs.Add(1)
		}
		return
	}
	err = g.issue(rctx, client, verb, query, contact, poolIdx)
	var rej *core.RejectedError
	if errors.As(err, &rej) {
		// A rejection keeps its connection: the server refused before
		// doing work, the transport is healthy.
		pool.Checkin(client)
		if record {
			g.rejected.Add(1)
			g.shed[shedIndex(rej.Scope)].Add(1)
		}
		return
	}
	if err != nil {
		pool.Discard(client)
		if record {
			g.errs.Add(1)
		}
		return
	}
	pool.Checkin(client)
	if record {
		g.ok.Add(1)
		g.hist.Observe(time.Since(sched))
	}
}

// issue performs verb's request on a leased client.
func (g *Generator) issue(ctx context.Context, client *core.Client, verb, query, contact string, poolIdx int) error {
	switch verb {
	case "info":
		_, err := client.QueryRawContext(ctx, query)
		return err
	case "submit":
		contact, err := client.SubmitContext(ctx, g.cfg.JobXRSL)
		if err == nil {
			g.mu.Lock()
			if len(g.contacts) < 4096 {
				g.contacts = append(g.contacts, submitted{contact: contact, pool: poolIdx})
			}
			g.mu.Unlock()
		}
		return err
	case "status":
		if contact == "" {
			// No job submitted yet to poll; a ping keeps the arrival real.
			return client.PingContext(ctx)
		}
		_, err := client.StatusContext(ctx, contact)
		return err
	default:
		return client.PingContext(ctx)
	}
}

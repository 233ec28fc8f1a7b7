package core

import (
	"time"

	"infogram/internal/bytecache"
	"infogram/internal/cache"
	"infogram/internal/provider"
	"infogram/internal/telemetry"
	"infogram/internal/xrsl"
	"infogram/internal/zerocopy"
)

// respCache caches fully rendered information responses — the body bytes
// a cache hit writes straight to the wire — in a sharded arena-backed
// byte cache. It sits above the per-keyword provider cache (§5.1/§6.2),
// which stays the fill path on miss: a response-cache miss still
// coalesces provider executions through the single-flight Entry and
// honors inter-execution delays. What this layer removes from the hit
// path is everything else — collect fan-out, quality augmentation,
// filtering, and LDIF/DSML rendering.
//
// Keys embed the registry's membership generation, so registering or
// unregistering a provider makes every previously cached response
// unreachable in O(1); the dead entries age out through TTL eviction and
// arena compaction. A request reads the generation once, before its
// lookup, and its store uses that same value: an answer collected while a
// provider registers is filed under the generation it was computed from,
// which the registration has already orphaned.
type respCache struct {
	// c is the managed stack: the byte cache, the generation stamp, the
	// negative TTL and the snapshot wiring.
	c   *bytecache.Managed
	reg *provider.Registry
	// ttl caps every entry's lifetime; effective TTL is min(ttl, the
	// smallest provider TTL among the keywords a response covers), so a
	// rendered blob never outlives the §5.1 freshness of its inputs.
	ttl time.Duration

	negHits *telemetry.Counter
}

// Value-blob flag bytes: every cached value is one flag byte followed by
// the payload.
const (
	respOK  = 0 // payload is the rendered response body
	respNeg = 1 // payload is the error text of a deterministic failure
)

// newRespCache builds the response cache from the service configuration
// (CacheTTL must be positive).
func newRespCache(cfg Config) *respCache {
	rc := &respCache{reg: cfg.Registry, ttl: cfg.CacheTTL}
	rc.c = bytecache.NewManaged(bytecache.ManagedOptions{
		Options: bytecache.Options{
			MaxBytes:   cfg.CacheMaxBytes,
			DefaultTTL: cfg.CacheTTL,
			Clock:      cfg.Clock,
		},
		Generation: cfg.Registry.Generation,
		Digest:     cfg.Registry.Digest,
		Telemetry:  cfg.Telemetry,
	})
	rc.negHits = cfg.Telemetry.Counter("infogram_respcache_negative_hits_total",
		"information queries answered from a cached negative result")
	return rc
}

// cacheable reports whether a request's answer may be served from and
// stored into the response cache. Immediate mode demands a fresh provider
// execution, a quality threshold changes which values are acceptable over
// time, schema reflection answers from live registration state, and
// performance augmentation embeds per-execution timing stats — none of
// which a rendered blob can honor.
func (rc *respCache) cacheable(req *xrsl.InfoRequest) bool {
	return req.Response == cache.Cached && req.Quality == 0 && !req.Schema && !req.Performance
}

// appendKey renders the cache key for req into buf: the request's registry
// generation first (membership churn invalidates wholesale), then every
// request dimension that selects a distinct rendered body.
func (rc *respCache) appendKey(buf []byte, gen uint64, req *xrsl.InfoRequest) []byte {
	buf = bytecache.AppendGen(buf, gen)
	var flags byte
	if req.All {
		flags |= 1
	}
	buf = append(buf, flags, byte(req.Response))
	buf = append(buf, req.Format...)
	buf = append(buf, 0)
	for _, kw := range req.Keywords {
		buf = append(buf, kw...)
		buf = append(buf, 0)
	}
	buf = append(buf, 0)
	buf = append(buf, req.Filter...)
	return buf
}

// lookup answers req from the cache under generation gen. ok reports a
// hit; on a hit, either negErr carries a cached deterministic failure or
// body aliases the cached blob (zero-copy — the arena is append-only, so
// the alias stays valid). The hit path performs no heap allocation.
func (rc *respCache) lookup(req *xrsl.InfoRequest, gen uint64) (body string, negErr string, ok bool) {
	bufp := bytecache.GetScratch()
	key := rc.appendKey((*bufp)[:0], gen, req)
	blob, hit := rc.c.Get(key)
	bytecache.PutScratch(bufp, key)
	if !hit || len(blob) == 0 {
		return "", "", false
	}
	payload := zerocopy.String(blob[1:])
	if blob[0] == respNeg {
		rc.negHits.Inc()
		return "", payload, true
	}
	return payload, "", true
}

// store caches a successful rendered body under gen, the generation the
// request's lookup saw. empty marks a response whose filter matched
// nothing: still worth caching (the evaluation cost is identical) but
// under the shorter negative TTL, so new data appears promptly.
func (rc *respCache) store(req *xrsl.InfoRequest, gen uint64, body string, empty bool) {
	ttl, ok := rc.storeTTL(req)
	if !ok {
		return
	}
	if empty {
		ttl = min(ttl, rc.c.NegTTL())
	}
	rc.put(req, gen, respOK, body, ttl)
}

// storeNegative caches a deterministic failure (an unknown keyword) under
// the negative TTL, so a flood of identical bad queries stops paying
// resolve cost — and a subsequent registration, by advancing the
// generation, makes the entry unreachable immediately.
func (rc *respCache) storeNegative(req *xrsl.InfoRequest, gen uint64, errText string) {
	rc.put(req, gen, respNeg, errText, rc.c.NegTTL())
}

// put assembles key and flag+payload in pooled scratch and inserts them;
// the cache copies both, so the buffers are immediately reusable.
func (rc *respCache) put(req *xrsl.InfoRequest, gen uint64, flag byte, payload string, ttl time.Duration) {
	keyp := bytecache.GetScratch()
	key := rc.appendKey((*keyp)[:0], gen, req)
	valp := bytecache.GetScratch()
	val := append((*valp)[:0], flag)
	val = append(val, payload...)
	rc.c.Set(key, val, ttl)
	bytecache.PutScratch(keyp, key)
	bytecache.PutScratch(valp, val)
}

// storeTTL resolves the lifetime a cached response may have: the cap,
// lowered to the smallest provider TTL among the covered keywords. A
// keyword with TTL 0 executes on every request (Table 1) — selfmetrics,
// selftrace — so any response covering one is never cached. Unknown
// keywords report not-cacheable here; their error is cached separately
// via storeNegative.
func (rc *respCache) storeTTL(req *xrsl.InfoRequest) (time.Duration, bool) {
	ttl := rc.ttl
	kws := req.Keywords
	if len(kws) == 0 {
		kws = rc.reg.Keywords()
	}
	for _, kw := range kws {
		g, ok := rc.reg.Lookup(kw)
		if !ok {
			return 0, false
		}
		pt := g.TTL()
		if pt <= 0 {
			return 0, false
		}
		if pt < ttl {
			ttl = pt
		}
	}
	return ttl, true
}

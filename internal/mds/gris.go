package mds

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"infogram/internal/bytecache"
	"infogram/internal/cache"
	"infogram/internal/clock"
	"infogram/internal/gsi"
	"infogram/internal/ldif"
	"infogram/internal/provider"
	"infogram/internal/session"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
	"infogram/internal/zerocopy"
)

// MDS protocol verbs. The directory protocol is deliberately distinct from
// GRAMP: the Figure 2 baseline requires clients to implement two wire
// protocols and contact two ports per resource.
const (
	VerbSearch   = "SEARCH"     // payload: JSON SearchRequest
	VerbResult   = "RESULT"     // payload: LDIF
	VerbRegister = "REGISTER"   // payload: GRIS address (GIIS only)
	VerbRegOK    = "REGISTERED" // payload: echo of address
	VerbMDSError = "MDS-ERROR"  // payload: message
)

// SearchRequest is the JSON payload of SEARCH.
type SearchRequest struct {
	// Filter is an LDAP filter string; empty means (objectclass=*).
	Filter string `json:"filter,omitempty"`
	// Attrs optionally restricts returned attributes (namespaced names);
	// empty returns everything.
	Attrs []string `json:"attrs,omitempty"`
}

// GRISConfig wires a GRIS server.
type GRISConfig struct {
	// ResourceName names the resource in entry DNs, e.g. "hot.anl.gov".
	ResourceName string
	// Registry supplies the information providers.
	Registry *provider.Registry
	// Credential/Trust secure the service (MDS 2.x integrates GSI, §3).
	Credential *gsi.Credential
	Trust      *gsi.TrustStore
	// Policy authorizes info queries; nil allows all authenticated users.
	Policy *gsi.Policy
	Clock  clock.Clock
	// Tracer, when set, records a span tree per request (the MDS client
	// offers no trace context, so GRIS traces are local roots).
	Tracer *telemetry.Tracer
	// CacheTTL, when positive, enables the response cache: rendered LDIF
	// bodies and filter→keyword projections are cached in a sharded byte
	// cache and cache hits are written to the wire zero-copy. The
	// effective per-entry TTL is capped by the smallest provider TTL among
	// the keywords a response covers. Zero disables the layer.
	CacheTTL time.Duration
	// CacheShards / CacheMaxBytes size the byte cache (0 selects the
	// bytecache defaults).
	CacheShards   int
	CacheMaxBytes int64
	// RefreshAhead, when in (0,1) and the cache is enabled, proactively
	// re-fills hot cached searches once they age past this fraction of
	// their TTL, so a steady-state hot filter never pays a provider
	// collection on a request. Zero disables the pool.
	RefreshAhead float64
	// SnapshotCompress writes cache snapshots gzip-compressed; restore
	// reads both layouts regardless.
	SnapshotCompress bool
	// Telemetry, when set together with CacheTTL, receives the byte
	// cache's counters and per-shard occupancy series.
	Telemetry *telemetry.Registry
}

// GRIS is a Grid Resource Information Service for one resource: it answers
// LDAP-style searches from the resource's information providers, with
// MDS-2.0-style caching provided by the registry's TTL cache.
type GRIS struct {
	cfg    GRISConfig
	server *session.Server
	// resp caches rendered LDIF bodies and filter→keyword projections,
	// keyed by the registry generation so provider churn invalidates both
	// wholesale; with RefreshAhead set it also keeps hot searches from
	// expiring under load. Nil when CacheTTL is zero.
	resp *bytecache.Managed
}

// NewGRIS builds a GRIS.
func NewGRIS(cfg GRISConfig) *GRIS {
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	if cfg.Policy == nil {
		cfg.Policy = gsi.AllowAll()
	}
	g := &GRIS{cfg: cfg}
	if cfg.CacheTTL > 0 {
		g.resp = bytecache.NewManaged(bytecache.ManagedOptions{
			Options: bytecache.Options{
				Shards:     cfg.CacheShards,
				MaxBytes:   cfg.CacheMaxBytes,
				DefaultTTL: cfg.CacheTTL,
				Clock:      cfg.Clock,
			},
			Generation:   cfg.Registry.Generation,
			Digest:       cfg.Registry.Digest,
			RefreshAhead: cfg.RefreshAhead,
			Refill: func(ctx context.Context, req any) (bool, error) {
				_, stored, err := g.fillSearch(ctx, req.(*SearchRequest), cache.Immediate)
				return stored, err
			},
			Telemetry: cfg.Telemetry,
			Family:    "mds_refresh_ahead",
			Subject:   "directory ",
			Labels:    []telemetry.Label{{Key: "tier", Value: "gris"}},
		})
	}
	g.server = session.NewServer(session.Config{
		Credential: cfg.Credential,
		Trust:      cfg.Trust,
		Clock:      cfg.Clock,
		ErrorVerb:  VerbMDSError,
		Tracer:     cfg.Tracer,
		Handler:    g.dispatch,
	})
	return g
}

// Listen binds the GRIS.
func (g *GRIS) Listen(addr string) (string, error) { return g.server.Listen(addr) }

// Addr returns the bound address.
func (g *GRIS) Addr() string { return g.server.Addr() }

// AcceptedConns reports accepted connections (experiment E3).
func (g *GRIS) AcceptedConns() int64 { return g.server.AcceptedConns() }

// Close shuts the GRIS down.
func (g *GRIS) Close() error {
	g.resp.Close()
	return g.server.Close()
}

// errorFrame builds an MDS-ERROR response.
func errorFrame(msg string) wire.Frame {
	return wire.Frame{Verb: VerbMDSError, Payload: []byte(msg)}
}

// searcher is what GRIS and GIIS share: a search answered as rendered LDIF.
type searcher interface {
	SearchLDIF(ctx context.Context, req SearchRequest) ([]byte, error)
}

// searchFrame answers one SEARCH for either directory server: authorize,
// decode, evaluate, and put the rendered body onto the wire as-is — on a
// cache hit it aliases the cache arena, on a miss the fresh render, zero
// copies either way.
func searchFrame(ctx context.Context, s searcher, policy *gsi.Policy, now time.Time, peer *session.Peer, payload []byte) wire.Frame {
	if err := policy.Authorize(peer.Identity, gsi.OpInfoQuery, now); err != nil {
		return errorFrame(err.Error())
	}
	var req SearchRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return errorFrame(fmt.Sprintf("mds: bad search payload: %v", err))
	}
	body, err := s.SearchLDIF(ctx, req)
	if err != nil {
		return errorFrame(err.Error())
	}
	return wire.Frame{Verb: VerbResult, Payload: body}
}

func (g *GRIS) dispatch(ctx context.Context, peer *session.Peer, f wire.Frame) wire.Frame {
	if f.Verb != VerbSearch {
		return errorFrame(fmt.Sprintf("mds: unknown verb %s", f.Verb))
	}
	return searchFrame(ctx, g, g.cfg.Policy, g.cfg.Clock.Now(), peer, f.Payload)
}

// Search evaluates a request locally and returns the matching entries.
// It answers through the same rendered-body cache as the wire path, so
// repeated identical searches parse a cached blob instead of
// re-collecting providers.
func (g *GRIS) Search(ctx context.Context, req SearchRequest) ([]ldif.Entry, error) {
	body, err := g.SearchLDIF(ctx, req)
	if err != nil {
		return nil, err
	}
	return ldif.Unmarshal(zerocopy.String(body))
}

// SearchLDIF evaluates a request and returns the rendered LDIF body. The
// returned bytes must be treated as read-only: on a cache hit they alias
// the cache's append-only arena (valid indefinitely — arenas are never
// mutated in place).
func (g *GRIS) SearchLDIF(ctx context.Context, req SearchRequest) ([]byte, error) {
	if g.resp != nil {
		keyp := bytecache.GetScratch()
		key := appendSearchKey(g.resp.AppendGen((*keyp)[:0]), 'b', &req)
		blob, ok := g.resp.Get(key)
		bytecache.PutScratch(keyp, key)
		if ok {
			return blob, nil
		}
	}
	body, _, err := g.fillSearch(ctx, &req, cache.Cached)
	return body, err
}

// fillSearch is the miss path, shared with the refresh-ahead pool:
// evaluate, render, and (when cacheable) store and track. The second
// result reports whether a rendering was stored. The refresh pool passes
// cache.Immediate, forcing the provider executions the refresh exists
// for — each provider's Entry still coalesces concurrent fills and still
// enforces the §6.2 minimum inter-execution delay, so refresh-ahead can
// never hammer a provider harder than the paper allows.
func (g *GRIS) fillSearch(ctx context.Context, req *SearchRequest, mode cache.Mode) ([]byte, bool, error) {
	entries, ttl, err := g.search(ctx, *req, mode)
	if err != nil {
		return nil, false, err
	}
	out, err := ldif.Marshal(entries)
	if err != nil {
		return nil, false, err
	}
	stored := false
	if g.resp != nil && ttl > 0 {
		if len(entries) == 0 {
			// Filters that matched nothing are worth caching — evaluation
			// cost is identical — but under the shorter negative TTL so new
			// data appears promptly.
			ttl = min(ttl, g.resp.NegTTL())
		}
		keyp := bytecache.GetScratch()
		key := appendSearchKey(g.resp.AppendGen((*keyp)[:0]), 'b', req)
		g.resp.Store(key, zerocopy.Bytes(out), ttl, req.clone)
		bytecache.PutScratch(keyp, key)
		stored = true
	}
	return zerocopy.Bytes(out), stored, nil
}

// search collects, filters, and projects. It also reports the lifetime a
// rendering of the result may be cached for: the configured cap lowered
// to the smallest provider TTL among the collected keywords, 0 when any
// collected keyword executes on every request (TTL 0) and the result is
// therefore uncacheable.
func (g *GRIS) search(ctx context.Context, req SearchRequest, mode cache.Mode) ([]ldif.Entry, time.Duration, error) {
	filter := MatchAll()
	if strings.TrimSpace(req.Filter) != "" {
		var err error
		filter, err = ParseFilter(req.Filter)
		if err != nil {
			return nil, 0, err
		}
	}
	// Collect only the keywords the filter can match (and none at all for
	// a filter that provably matches no provider entry), instead of
	// executing every provider on every query.
	kws, all := g.keywordHints(req.Filter, filter)
	var reports []provider.Report
	if all || len(kws) > 0 {
		if all {
			kws = nil
		}
		var err error
		reports, err = g.cfg.Registry.Collect(ctx, kws, mode, 0)
		if err != nil {
			return nil, 0, err
		}
	}
	ttl := g.cfg.CacheTTL
	for _, rep := range reports {
		reg, ok := g.cfg.Registry.Lookup(rep.Keyword)
		if !ok || reg.TTL() <= 0 {
			ttl = 0
			break
		}
		if reg.TTL() < ttl {
			ttl = reg.TTL()
		}
	}
	entries := provider.ReportEntries(g.cfg.ResourceName, reports)
	var out []ldif.Entry
	for _, e := range entries {
		if !filter.Matches(&e) {
			continue
		}
		out = append(out, projectAttrs(e, req.Attrs))
	}
	return out, ttl, nil
}

// keywordHints resolves the filter→keyword projection, caching it under
// (registry generation, filter text) when the response cache is enabled:
// the projection of a hot filter is computed once per membership
// generation, not once per query.
func (g *GRIS) keywordHints(raw string, f Filter) ([]string, bool) {
	known := g.cfg.Registry.Keywords()
	if g.resp == nil {
		return KeywordHints(f, known)
	}
	keyp := bytecache.GetScratch()
	key := append(g.resp.AppendGen((*keyp)[:0]), 'p')
	key = append(key, raw...)
	blob, ok := g.resp.Get(key)
	if ok && len(blob) > 0 {
		bytecache.PutScratch(keyp, key)
		if blob[0] == 1 {
			return nil, true
		}
		if len(blob) == 1 {
			return nil, false
		}
		return strings.Split(zerocopy.String(blob[1:]), "\x00"), false
	}
	kws, all := KeywordHints(f, known)
	val := make([]byte, 0, 64)
	if all {
		val = append(val, 1)
	} else {
		val = append(val, 0)
		for i, kw := range kws {
			if i > 0 {
				val = append(val, 0)
			}
			val = append(val, kw...)
		}
	}
	g.resp.Set(key, val, g.cfg.CacheTTL)
	bytecache.PutScratch(keyp, key)
	return kws, all
}

// projectAttrs keeps only the requested attributes (plus the DN); an empty
// request keeps everything.
func projectAttrs(e ldif.Entry, attrs []string) ldif.Entry {
	if len(attrs) == 0 {
		return e
	}
	keep := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		keep[strings.ToLower(a)] = true
	}
	out := ldif.Entry{DN: e.DN}
	for _, a := range e.Attrs {
		if keep[strings.ToLower(a.Name)] {
			out.Add(a.Name, a.Value)
		}
	}
	return out
}

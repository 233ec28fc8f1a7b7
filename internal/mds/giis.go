package mds

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"infogram/internal/bytecache"
	"infogram/internal/clock"
	"infogram/internal/gsi"
	"infogram/internal/ldif"
	"infogram/internal/session"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
	"infogram/internal/zerocopy"
)

// GIISConfig wires an index service.
type GIISConfig struct {
	// OrgName names the virtual organization the index serves.
	OrgName string
	// Credential/Trust authenticate the GIIS both as a server (to
	// clients) and as a client (to the GRISes it queries).
	Credential *gsi.Credential
	Trust      *gsi.TrustStore
	Policy     *gsi.Policy
	// RegistrationTTL expires registrants that have not re-registered;
	// 0 means registrations never expire.
	RegistrationTTL time.Duration
	// CacheTTL caches fan-out results briefly, MDS's aggregate caching
	// (§3 "an information caching function that allows viewing and
	// querying the information about a resource from a cache"). Rendered
	// bodies live in a sharded byte cache keyed by the membership
	// generation, so one cache holds many concurrent filters and any
	// membership change invalidates the lot. Member provider TTLs are not
	// visible across the wire, so CacheTTL alone bounds staleness here.
	CacheTTL time.Duration
	// CacheShards / CacheMaxBytes size the byte cache (0 selects the
	// bytecache defaults).
	CacheShards   int
	CacheMaxBytes int64
	// FanoutParallelism bounds concurrent member queries per search; 0
	// selects defaultFanoutParallelism. Unbounded fan-out would let one
	// search against a large federation spawn a goroutine and a connection
	// per registrant.
	FanoutParallelism int
	// MemberTimeout bounds each member query (dial, handshake, and call);
	// 0 selects defaultMemberTimeout. A member that exceeds it is reported
	// in the degraded status entry instead of stalling the whole search.
	MemberTimeout time.Duration
	// RefreshAhead, when in (0,1) and the cache is enabled, proactively
	// re-runs hot cached fan-outs once they age past this fraction of
	// CacheTTL, so a steady-state hot aggregate query never pays the
	// member fan-out on a request. Zero disables the pool.
	RefreshAhead float64
	// SnapshotCompress writes cache snapshots gzip-compressed; restore
	// reads both layouts regardless.
	SnapshotCompress bool
	// Telemetry, when set together with CacheTTL, receives the byte
	// cache's counters and per-shard occupancy series.
	Telemetry *telemetry.Registry
	Clock     clock.Clock
}

// GIIS is the aggregate directory of paper §3: GRIS servers register with
// it, and client searches fan out across all live registrants, mirroring
// how a virtual organization aggregates its resources' information.
type GIIS struct {
	cfg    GIISConfig
	server *session.Server

	mu      sync.Mutex
	members map[string]time.Time // GRIS address -> registration time
	// memGen counts membership changes: new registrants and expiries, but
	// NOT soft-state re-registration (registrars re-register continuously
	// and must not thrash the cache). Cache keys embed it.
	memGen atomic.Uint64
	// resp caches rendered fan-out bodies and, with RefreshAhead set, keeps
	// hot ones from expiring under load; nil when CacheTTL is zero.
	resp *bytecache.Managed
	// conns holds idle authenticated member clients for reuse across
	// searches, so the fan-out does not pay a dial + GSI handshake per
	// member per query.
	connMu sync.Mutex
	conns  map[string][]*Client
	closed bool

	fanDegraded  *telemetry.Counter
	memberErrors *telemetry.Counter
}

// NewGIIS builds an index service.
func NewGIIS(cfg GIISConfig) *GIIS {
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	if cfg.Policy == nil {
		cfg.Policy = gsi.AllowAll()
	}
	g := &GIIS{cfg: cfg, members: make(map[string]time.Time), conns: make(map[string][]*Client)}
	if cfg.Telemetry != nil {
		g.fanDegraded = cfg.Telemetry.Counter("mds_giis_searches_degraded_total",
			"GIIS searches answered partially because a member failed or timed out")
		g.memberErrors = cfg.Telemetry.Counter("mds_giis_member_errors_total",
			"GIIS member queries that failed or timed out")
	}
	if cfg.CacheTTL > 0 {
		g.resp = bytecache.NewManaged(bytecache.ManagedOptions{
			Options: bytecache.Options{
				Shards:     cfg.CacheShards,
				MaxBytes:   cfg.CacheMaxBytes,
				DefaultTTL: cfg.CacheTTL,
				Clock:      cfg.Clock,
			},
			Generation:   g.memGen.Load,
			Digest:       func() uint64 { return membershipDigest(g.Members()) },
			RefreshAhead: cfg.RefreshAhead,
			Refill: func(ctx context.Context, req any) (bool, error) {
				_, stored, err := g.fillSearch(ctx, req.(*SearchRequest))
				return stored, err
			},
			Telemetry: cfg.Telemetry,
			Family:    "mds_refresh_ahead",
			Subject:   "directory ",
			Labels:    []telemetry.Label{{Key: "tier", Value: "giis"}},
		})
	}
	g.server = session.NewServer(session.Config{
		Credential: cfg.Credential,
		Trust:      cfg.Trust,
		Clock:      cfg.Clock,
		ErrorVerb:  VerbMDSError,
		Handler:    g.dispatch,
	})
	return g
}

// Listen binds the GIIS.
func (g *GIIS) Listen(addr string) (string, error) { return g.server.Listen(addr) }

// Addr returns the bound address.
func (g *GIIS) Addr() string { return g.server.Addr() }

// Close shuts the GIIS down and drops the pooled member connections.
func (g *GIIS) Close() error {
	g.resp.Close()
	g.connMu.Lock()
	g.closed = true
	for addr, pool := range g.conns {
		for _, cl := range pool {
			cl.Close()
		}
		delete(g.conns, addr)
	}
	g.connMu.Unlock()
	return g.server.Close()
}

// Register adds a GRIS address directly (servers co-located with the GIIS
// may skip the wire protocol). Re-registering a live member refreshes its
// soft state without invalidating cached responses.
func (g *GIIS) Register(addr string) {
	g.mu.Lock()
	if _, known := g.members[addr]; !known {
		g.memGen.Add(1)
	}
	g.members[addr] = g.cfg.Clock.Now()
	g.mu.Unlock()
}

// Members returns the live registrant addresses, sorted.
func (g *GIIS) Members() []string {
	now := g.cfg.Clock.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.members))
	for addr, at := range g.members {
		if g.cfg.RegistrationTTL > 0 && now.Sub(at) > g.cfg.RegistrationTTL {
			delete(g.members, addr)
			g.memGen.Add(1)
			continue
		}
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

func (g *GIIS) dispatch(ctx context.Context, peer *session.Peer, f wire.Frame) wire.Frame {
	switch f.Verb {
	case VerbRegister:
		addr := strings.TrimSpace(string(f.Payload))
		if addr == "" {
			return errorFrame("mds: empty registration address")
		}
		g.Register(addr)
		return wire.Frame{Verb: VerbRegOK, Payload: []byte(addr)}
	case VerbSearch:
		return searchFrame(ctx, g, g.cfg.Policy, g.cfg.Clock.Now(), peer, f.Payload)
	default:
		return errorFrame(fmt.Sprintf("mds: unknown verb %s", f.Verb))
	}
}

// Search fans the request out to every live registrant and merges results.
// Repeated searches within CacheTTL are served from the aggregate cache.
func (g *GIIS) Search(ctx context.Context, req SearchRequest) ([]ldif.Entry, error) {
	body, err := g.SearchLDIF(ctx, req)
	if err != nil {
		return nil, err
	}
	return ldif.Unmarshal(zerocopy.String(body))
}

// SearchLDIF answers a search with the rendered LDIF body, serving repeats
// from the byte cache. The returned bytes must be treated as read-only: on
// a hit they alias the cache's append-only arena. Members that fail or
// time out degrade the reply — a status entry names them — instead of
// failing it, matching the decentralized tolerance a Grid information
// service requires (§3).
func (g *GIIS) SearchLDIF(ctx context.Context, req SearchRequest) ([]byte, error) {
	if g.resp != nil {
		keyp := bytecache.GetScratch()
		key := appendSearchKey(g.resp.AppendGen((*keyp)[:0]), 'g', &req)
		blob, ok := g.resp.Get(key)
		bytecache.PutScratch(keyp, key)
		if ok {
			return blob, nil
		}
	}

	body, _, err := g.fillSearch(ctx, &req)
	return body, err
}

// fillSearch is the miss path, shared with the refresh-ahead pool: fan
// out, merge, and (when no member failed) store and track. The second
// result reports whether a rendering was stored — degraded merges never
// are, so the next search retries the failed members instead of pinning
// the partial body for CacheTTL.
func (g *GIIS) fillSearch(ctx context.Context, req *SearchRequest) ([]byte, bool, error) {
	// The key — and with it the generation — is fixed before the fan-out:
	// if the membership changes mid-flight the stored entry is orphaned,
	// never served stale.
	var key []byte
	if g.resp != nil {
		key = appendSearchKey(g.resp.AppendGen(nil), 'g', req)
	}
	members := g.Members()
	results := g.scatter(ctx, members, *req)
	var merged []ldif.Entry
	var failed []memberResult
	for _, r := range results {
		if r.err != nil {
			failed = append(failed, r)
			g.memberErrors.Inc()
			continue
		}
		merged = append(merged, r.entries...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].DN < merged[j].DN })
	if len(failed) > 0 {
		// The status entry goes last, after the DN sort, mirroring the
		// gatekeeper's partial-reply convention (core.DegradedObjectClass)
		// so clients detect degradation from either tier the same way.
		merged = append(merged, degradedSearchEntry(g.cfg.OrgName, failed))
		g.fanDegraded.Inc()
	}

	out, err := ldif.Marshal(merged)
	if err != nil {
		return nil, false, err
	}
	stored := false
	if g.resp != nil && len(failed) == 0 {
		g.resp.Store(key, zerocopy.Bytes(out), g.cfg.CacheTTL, req.clone)
		stored = true
	}
	return zerocopy.Bytes(out), stored, nil
}

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
	// CacheMaxBytes is the byte cache's total budget; 0 selects
	// bytecache.DefaultMaxBytes.
	CacheMaxBytes int64
	// MemberTimeout bounds each member query (the wait for a pooled
	// connection, dial, handshake, and call); 0 selects
	// defaultMemberTimeout. It is also each member connection's I/O
	// timeout, so a call on a pooled connection is bounded by the
	// connection alone. A member that exceeds it is reported in the
	// degraded status entry instead of stalling the whole search.
	MemberTimeout time.Duration
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

	// mu guards members and pools.
	mu      sync.Mutex
	members map[string]time.Time // GRIS address -> registration time
	// memGen counts membership changes: new registrants and expiries, but
	// NOT soft-state re-registration (registrars re-register continuously
	// and must not thrash the cache). Cache keys embed it.
	memGen atomic.Uint64
	// resp caches rendered fan-out bodies; nil when CacheTTL is zero.
	resp *bytecache.Managed
	// pools holds one connection pool per live member, so the fan-out
	// pays no dial + GSI handshake per query. A pool is closed when its
	// member expires (Members) or by Close, which sets pools to nil.
	pools map[string]*session.Pool[*Client]

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
	g := &GIIS{cfg: cfg, members: make(map[string]time.Time), pools: make(map[string]*session.Pool[*Client])}
	if cfg.Telemetry != nil {
		g.fanDegraded = cfg.Telemetry.Counter("mds_giis_searches_degraded_total",
			"GIIS searches answered partially because a member failed or timed out")
		g.memberErrors = cfg.Telemetry.Counter("mds_giis_member_errors_total",
			"GIIS member queries that failed or timed out")
	}
	if cfg.CacheTTL > 0 {
		g.resp = bytecache.NewManaged(bytecache.ManagedOptions{
			Options: bytecache.Options{
				MaxBytes:   cfg.CacheMaxBytes,
				DefaultTTL: cfg.CacheTTL,
				Clock:      cfg.Clock,
			},
			Generation: g.memGen.Load,
			Digest:     func() uint64 { return membershipDigest(g.Members()) },
			Telemetry:  cfg.Telemetry,
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

// Close shuts the GIIS down and closes the member pools.
func (g *GIIS) Close() error {
	g.mu.Lock()
	pools := g.pools
	g.pools = nil
	g.mu.Unlock()
	for _, pool := range pools {
		pool.Close()
	}
	return g.server.Close()
}

// Register adds a GRIS address directly (servers co-located with the GIIS
// may skip the wire protocol). Re-registering a live member refreshes its
// soft state without invalidating cached responses.
func (g *GIIS) Register(addr string) {
	g.mu.Lock()
	if _, known := g.members[addr]; !known {
		g.memGen.Add(1)
		// A new member's pool has the defaults: four leases, pinged
		// before reuse after a second idle, reaped after a minute.
		if g.pools != nil {
			dial := func(ctx context.Context) (*Client, error) {
				cl, err := DialContext(ctx, addr, g.cfg.Credential, g.cfg.Trust, g.cfg.Clock)
				if err == nil {
					cl.sess.Conn.SetIOTimeout(g.memberTimeout())
				}
				return cl, err
			}
			ping := func(ctx context.Context, cl *Client) error { return cl.ping(ctx) }
			g.pools[addr] = session.NewPool(dial, ping, session.PoolOptions{Clock: g.cfg.Clock})
		}
	}
	g.members[addr] = g.cfg.Clock.Now()
	g.mu.Unlock()
}

// Members returns the live registrant addresses, sorted. Expired
// registrants are forgotten here, and their pools closed.
func (g *GIIS) Members() []string {
	now := g.cfg.Clock.Now()
	g.mu.Lock()
	out := make([]string, 0, len(g.members))
	var gone []*session.Pool[*Client]
	for addr, at := range g.members {
		if g.cfg.RegistrationTTL > 0 && now.Sub(at) > g.cfg.RegistrationTTL {
			delete(g.members, addr)
			g.memGen.Add(1)
			if pool, ok := g.pools[addr]; ok {
				gone = append(gone, pool)
				delete(g.pools, addr)
			}
			continue
		}
		out = append(out, addr)
	}
	g.mu.Unlock()
	for _, pool := range gone {
		pool.Close()
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
	case VerbPing:
		return wire.Frame{Verb: VerbPong}
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
	return g.answer(ctx, req, nil)
}

// answer is SearchLDIF for a request decoded from payload, which a miss
// forwards to the members as it is; a nil payload is encoded from req.
func (g *GIIS) answer(ctx context.Context, req SearchRequest, payload []byte) ([]byte, error) {
	// The generation is fixed before the lookup and the fan-out: if the
	// membership changes mid-flight the stored entry is orphaned, never
	// served stale.
	var gen uint64
	if g.resp != nil {
		gen = g.resp.Generation()
		keyp := bytecache.GetScratch()
		key := appendSearchKey(bytecache.AppendGen((*keyp)[:0], gen), 'g', &req)
		blob, ok := g.resp.Get(key)
		bytecache.PutScratch(keyp, key)
		if ok {
			return blob, nil
		}
	}
	return g.fillSearch(ctx, &req, payload, gen)
}

// fillSearch is the miss path: fan out, merge, and (when no member failed)
// store under gen. Degraded merges are never stored, so the next search
// retries the failed members instead of pinning the partial body for
// CacheTTL.
func (g *GIIS) fillSearch(ctx context.Context, req *SearchRequest, payload []byte, gen uint64) ([]byte, error) {
	if payload == nil {
		payload = appendSearchRequest(nil, req)
	}
	results := g.scatter(ctx, g.Members(), payload)
	failed := 0
	for _, r := range results {
		if r.err != nil {
			failed++
			g.memberErrors.Inc()
		}
	}
	out, err := splice(g.cfg.OrgName, results)
	if err != nil {
		return nil, err
	}
	if failed > 0 {
		g.fanDegraded.Inc()
	}
	if g.resp != nil && failed == 0 {
		keyp := bytecache.GetScratch()
		key := appendSearchKey(bytecache.AppendGen((*keyp)[:0], gen), 'g', req)
		g.resp.Set(key, out, g.cfg.CacheTTL)
		bytecache.PutScratch(keyp, key)
	}
	return out, nil
}

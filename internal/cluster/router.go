package cluster

import (
	"context"
	"fmt"
	"net/url"
	"time"

	"infogram/internal/core"
	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
	"infogram/internal/xrsl"
)

// ErrNoMembers reports that routing was attempted with every member
// ejected (or an empty member list).
var ErrNoMembers = fmt.Errorf("cluster: no healthy members")

// RouterConfig configures a Router.
type RouterConfig struct {
	// Members are the backend infogram-server addresses (host:port).
	Members []string
	// Cred and Trust authenticate the router to every backend.
	Cred  *gsi.Credential
	Trust *gsi.TrustStore
	// Pool configures the per-member connection pool (and through
	// Pool.Client, timeouts/retry/telemetry for each pooled client).
	Pool core.PoolOptions
	// FailThreshold is the consecutive-failure count that ejects a member
	// from routing; <=0 selects DefaultFailThreshold.
	FailThreshold int
	// ProbeInterval is how often ejected members are pinged for
	// readmission; <=0 selects DefaultProbeInterval.
	ProbeInterval time.Duration
	// Telemetry optionally receives the cluster routing counters.
	Telemetry *telemetry.Registry
}

// Router maps requests onto N backends through the consistent-hash ring
// and fronts one core.Pool per member. Failures observed through the
// router feed per-member health: a member past the consecutive-failure
// threshold is ejected (its keys fall to rendezvous-chosen survivors)
// and probed back in.
type Router struct {
	ring   *Ring
	pools  map[string]*core.Pool
	health *health

	forwards  *telemetry.Counter
	fallbacks *telemetry.Counter
}

// NewRouter builds a router over cfg.Members. Pools dial lazily; a
// router over unreachable members constructs fine and ejects them on
// first use.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Members) == 0 {
		return nil, ErrNoMembers
	}
	r := &Router{
		ring:  NewRing(cfg.Members, DefaultVnodes),
		pools: make(map[string]*core.Pool, len(cfg.Members)),
	}
	for _, m := range cfg.Members {
		if _, dup := r.pools[m]; dup {
			return nil, fmt.Errorf("cluster: duplicate member %q", m)
		}
		r.pools[m] = core.NewPool(m, cfg.Cred, cfg.Trust, cfg.Pool)
	}
	r.health = newHealth(cfg.Members, cfg.FailThreshold, cfg.ProbeInterval, func(m string) error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		return r.pools[m].Ping(ctx)
	})
	r.health.setTelemetry(cfg.Telemetry)
	if cfg.Telemetry != nil {
		r.forwards = cfg.Telemetry.Counter("cluster_router_forwards_total",
			"requests routed to a backend by the cluster router")
		r.fallbacks = cfg.Telemetry.Counter("cluster_router_fallbacks_total",
			"requests routed to a rendezvous fallback because the ring owner was ejected")
	}
	r.health.start()
	return r, nil
}

// Close stops health probing and closes every member pool.
func (r *Router) Close() error {
	r.health.close()
	for _, p := range r.pools {
		p.Close()
	}
	return nil
}

// Members returns the configured member addresses, sorted.
func (r *Router) Members() []string { return r.ring.Members() }

// Ejected returns the currently-ejected member set (nil when healthy).
func (r *Router) Ejected() map[string]bool { return r.health.ejected() }

// owner resolves key to a healthy member, falling back past ejections.
func (r *Router) owner(key string) (string, error) {
	rejected := r.health.ejected()
	m := r.ring.OwnerExcluding(key, rejected)
	if m == "" {
		return "", ErrNoMembers
	}
	if rejected != nil && m != r.ring.Owner(key) {
		r.fallbacks.Inc()
	}
	return m, nil
}

// observe feeds a call outcome into member health. Only transport-level
// failures count against a member: a REJECT or server ERROR is the
// member answering, not the member down — core.Pool already surfaces
// those as non-error frames or non-transient errors, so anything
// isTransient-shaped lands here as err != nil.
func (r *Router) observe(member string, err error) {
	if err != nil {
		r.health.fail(member)
	} else {
		r.health.ok(member)
	}
}

// RouteKey computes the routing key for a raw xRSL source: the first
// info keyword for a query (so a keyword's cache entries concentrate on
// its owner), the source text for a job (spreading submissions), and
// the source text as a last resort when the xRSL does not parse — the
// backend will produce the real parse error. Multi-requests route by
// their first part.
func RouteKey(src string) string {
	key, _ := classify(src)
	return key
}

// MemberForContact returns the member owning a job contact. Job
// contacts embed the gatekeeper that minted them (gram://host:port/...),
// so status/cancel/signal route straight to the owner without any table.
// Contacts naming a non-member (a promoted follower's old leader, a
// decommissioned node) route by ring over the whole contact string so
// they at least fail deterministically.
func (r *Router) MemberForContact(contact string) (string, error) {
	if u, err := url.Parse(contact); err == nil && u.Host != "" {
		if _, ok := r.pools[u.Host]; ok {
			return u.Host, nil
		}
	}
	return r.owner(contact)
}

// Forward routes one raw request frame by key and relays it to the
// owner, recording the outcome in member health.
func (r *Router) Forward(ctx context.Context, key string, req wire.Frame, idempotent bool) (wire.Frame, error) {
	m, err := r.owner(key)
	if err != nil {
		return wire.Frame{}, err
	}
	return r.forwardTo(ctx, m, req, idempotent)
}

// ForwardToContact routes a job-control frame (STATUS/CANCEL/SIGNAL) to
// the member named inside the contact.
func (r *Router) ForwardToContact(ctx context.Context, contact string, req wire.Frame, idempotent bool) (wire.Frame, error) {
	m, err := r.MemberForContact(contact)
	if err != nil {
		return wire.Frame{}, err
	}
	return r.forwardTo(ctx, m, req, idempotent)
}

func (r *Router) forwardTo(ctx context.Context, member string, req wire.Frame, idempotent bool) (wire.Frame, error) {
	r.forwards.Inc()
	resp, err := r.pools[member].Forward(ctx, req, idempotent)
	r.observe(member, err)
	return resp, err
}

// Query routes a typed information request by its first keyword.
func (r *Router) Query(ctx context.Context, req xrsl.InfoRequest) (core.InfoResult, error) {
	return r.QueryRaw(ctx, req.Encode())
}

// QueryRaw routes a raw info query by RouteKey.
func (r *Router) QueryRaw(ctx context.Context, src string) (core.InfoResult, error) {
	m, err := r.owner(RouteKey(src))
	if err != nil {
		return core.InfoResult{}, err
	}
	res, qerr := r.pools[m].QueryRaw(ctx, src)
	r.observe(m, qerr)
	return res, qerr
}

// Submit routes a job submission by its source hash; the returned
// contact embeds the owning member, so subsequent Status/Cancel calls
// route back to it.
func (r *Router) Submit(ctx context.Context, src string) (string, error) {
	m, err := r.owner(RouteKey(src))
	if err != nil {
		return "", err
	}
	contact, serr := r.pools[m].Submit(ctx, src)
	r.observe(m, serr)
	return contact, serr
}

// Status routes a status poll to the contact's owner.
func (r *Router) Status(ctx context.Context, contact string) (gram.StatusReply, error) {
	m, err := r.MemberForContact(contact)
	if err != nil {
		return gram.StatusReply{}, err
	}
	reply, serr := r.pools[m].Status(ctx, contact)
	r.observe(m, serr)
	return reply, serr
}

// Pool exposes the member's pool (nil for unknown members) so callers
// with out-of-band needs — the load generator's ring-aware mode, tests —
// reuse the router's connections.
func (r *Router) Pool(member string) *core.Pool { return r.pools[member] }

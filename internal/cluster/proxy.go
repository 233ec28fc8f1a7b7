package cluster

import (
	"context"
	"fmt"
	"strings"
	"time"

	"infogram/internal/clock"
	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/session"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
	"infogram/internal/xrsl"
	"infogram/internal/zerocopy"
)

// ProxyConfig wires a cluster proxy.
type ProxyConfig struct {
	// Credential and Trust terminate the client-facing GSI handshake. The
	// proxy re-authenticates to the backends with the router's credential;
	// backends therefore see the proxy's identity, so cluster deployments
	// grant the proxy identity the union of client rights and enforce
	// per-client policy at the proxy tier (or run backends with the
	// cluster-internal policy).
	Credential *gsi.Credential
	Trust      *gsi.TrustStore
	// Router performs the actual placement and forwarding. Required; the
	// proxy does not own it (callers Close it separately so it can be
	// shared with in-process tooling).
	Router *Router
	// Clock defaults to the system clock.
	Clock clock.Clock
	// RequestTimeout bounds connection I/O and each forwarded exchange,
	// exactly as core.Config.RequestTimeout does. Zero means unbounded.
	RequestTimeout time.Duration
	// Telemetry optionally receives the proxy's counters.
	Telemetry *telemetry.Registry
}

// Proxy is the cluster's thin routing tier: a session server whose
// handler classifies each request frame and relays it to the owning
// backend over the router's pooled mux connections — so any legacy
// client pointed at the proxy transparently talks to an N-node cluster.
// The proxy holds no job or cache state of its own; PING is the only
// verb it answers locally.
//
// The proxy runs no tracer, so its session declines trace and clients
// fall back exactly as they do against a pre-trace server.
type Proxy struct {
	cfg    ProxyConfig
	server *session.Server

	relayed  *telemetry.Counter
	relayErr *telemetry.Counter
}

// NewProxy builds a proxy over cfg.Router.
func NewProxy(cfg ProxyConfig) *Proxy {
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	p := &Proxy{cfg: cfg}
	if cfg.Telemetry != nil {
		p.relayed = cfg.Telemetry.Counter("cluster_proxy_relayed_total",
			"request frames relayed to a backend by the cluster proxy")
		p.relayErr = cfg.Telemetry.Counter("cluster_proxy_relay_errors_total",
			"relays that failed after routing (backend unreachable or exchange failed)")
	}
	p.server = session.NewServer(session.Config{
		Credential: cfg.Credential,
		Trust:      cfg.Trust,
		Clock:      cfg.Clock,
		Timeout:    cfg.RequestTimeout,
		ErrorVerb:  gram.VerbError,
		Handler:    p.relay,
	})
	return p
}

// Listen binds the proxy and returns the bound address.
func (p *Proxy) Listen(addr string) (string, error) { return p.server.Listen(addr) }

// Addr returns the bound address.
func (p *Proxy) Addr() string { return p.server.Addr() }

// Close stops accepting and closes client connections. The router is
// the caller's to close.
func (p *Proxy) Close() error { return p.server.Close() }

// relay classifies one request frame, routes it, and returns the
// backend's response (or a local answer/error).
func (p *Proxy) relay(ctx context.Context, _ *session.Peer, f wire.Frame) wire.Frame {
	payload := zerocopy.String(f.Payload)
	var resp wire.Frame
	var err error
	switch f.Verb {
	case gram.VerbPing:
		// Answered locally: PING probes the tier you dialed.
		return wire.Frame{Verb: gram.VerbPong}
	case gram.VerbSubmit:
		key, idempotent := classify(payload)
		p.relayed.Inc()
		resp, err = p.cfg.Router.Forward(ctx, key, f, idempotent)
	case gram.VerbStatus:
		p.relayed.Inc()
		resp, err = p.cfg.Router.ForwardToContact(ctx, strings.TrimSpace(payload), f, true)
	case gram.VerbCancel:
		p.relayed.Inc()
		resp, err = p.cfg.Router.ForwardToContact(ctx, strings.TrimSpace(payload), f, false)
	case gram.VerbSignal:
		contact, _, _ := strings.Cut(strings.TrimSpace(payload), " ")
		p.relayed.Inc()
		resp, err = p.cfg.Router.ForwardToContact(ctx, contact, f, false)
	default:
		return wire.Frame{Verb: gram.VerbError, Payload: []byte(fmt.Sprintf("cluster: unknown verb %s", f.Verb))}
	}
	if err != nil {
		p.relayErr.Inc()
		return wire.Frame{Verb: gram.VerbError, Payload: []byte(fmt.Sprintf("cluster: relay: %v", err))}
	}
	return resp
}

// classify derives a SUBMIT frame's routing key and idempotency: a pure
// info request is read-only (safe to retry on a fallback backend), any
// request that may start a job is not. Unparseable sources relay
// non-idempotently and let the owner produce the real error.
func classify(src string) (key string, idempotent bool) {
	reqs, err := xrsl.Decode(src, nil)
	if err != nil || len(reqs) == 0 {
		return src, false
	}
	idempotent = true
	for _, r := range reqs {
		if r.Kind != xrsl.KindInfo {
			idempotent = false
			break
		}
	}
	if info := reqs[0].Info; info != nil {
		switch {
		case info.Schema:
			return "schema", idempotent
		case info.All || len(info.Keywords) == 0:
			return "all", idempotent
		default:
			return info.Keywords[0], idempotent
		}
	}
	return src, idempotent
}

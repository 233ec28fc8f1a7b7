package main

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"infogram/internal/core"
	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/journal"
	"infogram/internal/provider"
	"infogram/internal/scheduler"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
)

// fabric is the GSI environment every workload shares: one CA, one service
// identity, one user mapped in the gridmap.
type fabric struct {
	trust   *gsi.TrustStore
	gridmap *gsi.Gridmap
	service *gsi.Credential
	user    *gsi.Credential
}

func newFabric() (*fabric, error) {
	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=Bench CA", 24*time.Hour, now)
	if err != nil {
		return nil, err
	}
	service, err := ca.IssueIdentity("/O=Grid/CN=bench-service", 12*time.Hour, now)
	if err != nil {
		return nil, err
	}
	user, err := ca.IssueIdentity("/O=Grid/CN=bench-user", 12*time.Hour, now)
	if err != nil {
		return nil, err
	}
	gm := gsi.NewGridmap()
	gm.Add("/O=Grid/CN=bench-user", "bench")
	return &fabric{trust: gsi.NewTrustStore(ca.Certificate()), gridmap: gm, service: service, user: user}, nil
}

// The TTLs of the suite's providers. A response covering a TTL-0 keyword
// is never stored in the response cache (core's storeTTL), so query_cold's
// volatile keywords carry the smallest positive TTL instead: they still
// execute on every request, and the rendered body is still Set.
const (
	stableTTL   = time.Hour
	volatileTTL = time.Nanosecond
	cacheTTL    = time.Hour // longer than any run
)

// newRegistry builds member's provider registry: stable providers with a
// one-hour TTL followed by volatile ones. Every execution is counted in
// execs, which is how the suite knows what the provider layer did.
func newRegistry(member, stable, volatile int, execs *atomic.Int64) *provider.Registry {
	reg := provider.NewRegistry(nil)
	for k := 0; k < stable+volatile; k++ {
		attrs := make(provider.Attributes, 0, attrGroups*attrsPerGroup)
		for g := 0; g < attrGroups; g++ {
			for i := 0; i < attrsPerGroup; i++ {
				attrs = append(attrs, provider.Attr{Name: fmt.Sprintf("g%dx%d", g, i), Value: attrValue(member, k, g, i)})
			}
		}
		p := provider.NewFuncProvider(kwName(k), func(context.Context) (provider.Attributes, error) {
			execs.Add(1)
			return attrs, nil
		})
		ttl := stableTTL
		if k >= stable {
			ttl = volatileTTL
		}
		reg.Register(p, provider.RegisterOptions{TTL: ttl})
	}
	return reg
}

// noopFunc is the func backend with the one instant job the suite submits.
func noopFunc() *scheduler.Func {
	fn := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
	fn.RegisterFunc("noop", func(context.Context, *scheduler.Sandbox, []string, string) (string, error) {
		return "", nil
	})
	return fn
}

// node is one running core.Service with the things the suite reads from it.
type node struct {
	svc      *core.Service
	addr     string
	resource string
	tel      *telemetry.Registry
	execs    *atomic.Int64
}

// nodeOptions are the departures from the default core.Config a workload
// asks for; everything else stays at its default and no failpoint is armed.
type nodeOptions struct {
	resource      string
	member        int
	stable        int
	volatile      int
	cacheMaxBytes int64  // 0: bytecache default
	journalDir    string // "": no journal
}

func startNode(f *fabric, o nodeOptions) (*node, error) {
	n := &node{resource: o.resource, tel: telemetry.NewRegistry(), execs: new(atomic.Int64)}
	var jnl *journal.Journal // nil: no journal
	if o.journalDir != "" {
		var err error
		if jnl, _, err = journal.Open(journal.Options{Dir: o.journalDir, Telemetry: n.tel}); err != nil {
			return nil, err
		}
	}
	n.svc = core.NewService(core.Config{
		ResourceName:  o.resource,
		Credential:    f.service,
		Trust:         f.trust,
		Gridmap:       f.gridmap,
		Registry:      newRegistry(o.member, o.stable, o.volatile, n.execs),
		Backends:      gram.Backends{Func: noopFunc(), Exec: &scheduler.Fork{}},
		Journal:       jnl,
		Telemetry:     n.tel,
		CacheTTL:      cacheTTL,
		CacheMaxBytes: o.cacheMaxBytes,
	})
	addr, err := n.svc.Listen("127.0.0.1:0")
	if err != nil {
		n.close()
		return nil, err
	}
	n.addr = addr
	return n, nil
}

// close stops the service, which also closes its journal.
func (n *node) close() { n.svc.Close() }

// handshakeServer accepts connections and runs only the GSI server
// handshake on them: the peer gsi.handshake_us is timed against.
func handshakeServer(f *fabric) (*wire.Server, string, error) {
	srv := wire.NewServer(wire.HandlerFunc(func(c *wire.Conn) {
		_, _ = gsi.ServerHandshake(c, f.service, f.trust, time.Now())
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	return srv, addr, err
}

// stateDir makes a fresh directory for journals under the suite's output
// directory, so a run writes nothing outside its checkout.
func stateDir(outDir, name string) (string, error) {
	return os.MkdirTemp(outDir, "state-"+name+"-")
}

// Package session owns the life of one authenticated connection, on both
// ends. Every server in the repository — the InfoGram and GRAM
// gatekeepers, the MDS GRIS and GIIS, the cluster proxy — is a
// session.Server with a protocol-specific Handler, and every client
// reaches them through session.Dial, so the servers differ in what they
// compute, not in how they hold a connection (paper §4, Figures 2 and 4).
//
// The accept side runs, per connection: I/O timeout, deadline-bounded GSI
// handshake, capability negotiation (one HELLO exchange for trace, mux and
// repl; ERROR means declined), the once-per-connection identity gate, then
// the serial read loop or, after mux, the bounded concurrent one.
package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"infogram/internal/clock"
	"infogram/internal/gsi"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
)

// DefaultParallelism is the per-connection worker bound for mux'd
// connections. Requests are mostly provider- and scheduler-bound, not
// CPU-bound, so a moderate constant beats scaling with the host.
const DefaultParallelism = 8

// handshakeTimeout (ns) bounds the GSI handshake on servers without a
// request timeout, and the request header on NewHTTPServer's, so a client
// that connects and says nothing cannot park a goroutine forever.
// Post-handshake idle reads stay unbounded so pooled connections survive.
var handshakeTimeout atomic.Int64

func init() { handshakeTimeout.Store(int64(10 * time.Second)) }

// SetHandshakeTimeout is a test hook: it replaces the handshake bound and
// returns a function restoring the previous one.
func SetHandshakeTimeout(d time.Duration) (restore func()) {
	old := handshakeTimeout.Swap(int64(d))
	return func() { handshakeTimeout.Store(old) }
}

// Peer is the authenticated remote end of a connection as a Handler sees
// it: the GSI identity plus whatever the identity gate mapped it to.
type Peer struct {
	gsi.Peer
	// Local is the gate's result (the gridmap account); empty on servers
	// without a gate.
	Local string
}

// Handler answers one request frame. On a mux'd connection up to
// Parallelism calls run at once; peer is shared by all of a connection's
// requests and is read-only. When the server traces, ctx carries the
// request's root span, which the session ends — failed, if the response
// is an error frame — after the handler returns.
type Handler func(ctx context.Context, peer *Peer, req wire.Frame) wire.Frame

// Instruments is the optional telemetry a session server feeds. Nil
// metrics are no-ops, so the zero value disables instrumentation.
type Instruments struct {
	Server wire.ServerInstruments
	Conn   wire.ConnInstruments
	// Handshake outcomes; expired certificates (typically short-lived
	// proxies) are an expected operational event with their own bucket.
	AuthOK      *telemetry.Counter
	AuthFailed  *telemetry.Counter
	AuthExpired *telemetry.Counter
	AuthLatency *telemetry.Histogram
	// Connections upgraded to mux, and requests executing across them.
	MuxConns    *telemetry.Counter
	MuxInFlight *telemetry.Gauge
}

func (in *Instruments) observeAuth(err error, elapsed time.Duration) {
	in.AuthLatency.Observe(elapsed)
	switch {
	case err == nil:
		in.AuthOK.Inc()
	case errors.Is(err, gsi.ErrExpired):
		in.AuthExpired.Inc()
	default:
		in.AuthFailed.Inc()
	}
}

// Config wires a session server.
type Config struct {
	// Credential and Trust terminate the GSI handshake.
	Credential *gsi.Credential
	Trust      *gsi.TrustStore
	// Clock defaults to the system clock.
	Clock clock.Clock
	// Timeout is the server's request timeout. When positive it bounds
	// the handshake, every frame read and write (a slow peer is cut off,
	// an idle one must reconnect), and each request's context. Zero
	// leaves only the handshake bounded, by the package's fixed timeout.
	Timeout time.Duration
	// Parallelism bounds concurrent requests on one mux'd connection;
	// zero or negative selects DefaultParallelism.
	Parallelism int
	// ErrorVerb is the protocol's error verb: the session's own refusals
	// carry it, and a handler response carrying it fails the root span.
	ErrorVerb string
	// Gate, when set, maps the authenticated identity to a local account.
	// It runs once per connection, before the first request is handled or
	// repl is granted — a HELLO for trace or mux alone does not run it; a
	// refusal answers that frame with "gatekeeper: <reason>" and closes
	// the connection.
	Gate func(identity string) (local string, err error)
	// Tracer, when set, grants trace and roots a span tree per request —
	// joined to the caller's trace on a negotiated connection,
	// server-local otherwise; the connection's first adopts the handshake
	// as a child span. Nil declines trace like a pre-trace peer.
	Tracer *telemetry.Tracer
	// Repl, when set, grants repl: after HELLO-OK it takes over the gated
	// connection, which closes when it returns. Nil declines repl.
	Repl func(c *wire.Conn)
	// Instruments receives the session's telemetry; the zero value
	// records nothing.
	Instruments Instruments
	// Handler answers the protocol's requests. Required.
	Handler Handler
}

// Server accepts connections and runs a session on each. The embedded
// wire.Server provides Listen, Addr, AcceptedConns and Close.
type Server struct {
	*wire.Server
	cfg Config
}

// NewServer returns a session server dispatching to cfg.Handler.
func NewServer(cfg Config) *Server {
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = DefaultParallelism
	}
	s := &Server{cfg: cfg}
	s.Server = wire.NewServer(s)
	s.Server.Instrument(cfg.Instruments.Server)
	return s
}

// ServeConn implements wire.Handler: it authenticates c and serves it
// until the peer disconnects or misbehaves.
func (s *Server) ServeConn(c *wire.Conn) {
	cfg := &s.cfg
	c.Instrument(cfg.Instruments.Conn)
	bound := time.Duration(handshakeTimeout.Load())
	if cfg.Timeout > 0 {
		c.SetIOTimeout(cfg.Timeout)
		bound = cfg.Timeout
	}
	start := cfg.Clock.Now()
	hctx, cancel := context.WithTimeout(context.Background(), bound)
	peer, err := gsi.ServerHandshakeContext(hctx, c, cfg.Credential, cfg.Trust, start)
	cancel()
	elapsed := cfg.Clock.Now().Sub(start)
	cfg.Instruments.observeAuth(err, elapsed)
	if err != nil {
		return // the handshake already reported AUTH-ERR where possible
	}
	cn := &conn{cfg: cfg, c: c, peer: Peer{Peer: *peer}, hsStart: start, hsDur: elapsed}
	cn.hsPending.Store(true)
	cn.serve()
}

// conn is one authenticated connection's state.
type conn struct {
	cfg  *Config
	c    *wire.Conn
	peer Peer

	// traced and gated are written only by the goroutine reading the
	// connection, before it starts the workers that read them.
	traced bool // the peer negotiated the trace-context prefix
	gated  bool // the identity gate has passed

	// The handshake predates any trace, so its timing is kept aside and
	// recorded as a child of the connection's first traced request.
	hsStart   time.Time
	hsDur     time.Duration
	hsPending atomic.Bool
}

func (cn *conn) errorFrame(msg string) wire.Frame {
	return wire.Frame{Verb: cn.cfg.ErrorVerb, Payload: []byte(msg)}
}

// serve is the post-handshake loop. It starts strictly serial — read one
// frame, answer it — the seed-era wire contract, so peers that never
// heard of a capability work unchanged. A HELLO on the serial loop is
// answered here and never reaches the handler; granting mux or repl hands
// the connection over for good.
func (cn *conn) serve() {
	for {
		f, err := cn.c.Read()
		if err != nil {
			return
		}
		switch f.Verb {
		case wire.VerbHello:
			want := wire.ParseCaps(f.Payload)
			if want&(wire.CapMux|wire.CapRepl) == wire.CapMux|wire.CapRepl {
				if err := cn.c.Write(cn.errorFrame("session: mux and repl are exclusive")); err != nil {
					return
				}
				continue
			}
			granted := want
			if cn.cfg.Tracer == nil {
				granted &^= wire.CapTrace
			}
			if cn.cfg.Repl == nil {
				granted &^= wire.CapRepl
			}
			if granted&wire.CapRepl != 0 {
				if refusal, ok := cn.gate(); !ok {
					_ = cn.c.Write(refusal)
					return
				}
			}
			if err := cn.c.Write(wire.Frame{Verb: wire.VerbHelloOK, Payload: granted.Tokens()}); err != nil {
				return
			}
			cn.traced = granted&wire.CapTrace != 0
			switch {
			case granted&wire.CapMux != 0:
				cn.serveMux()
				return
			case granted&wire.CapRepl != 0:
				cn.cfg.Repl(cn.c)
				return
			}
		default:
			if refusal, ok := cn.gate(); !ok {
				_ = cn.c.Write(refusal)
				return
			}
			_ = cn.c.Write(cn.handle(f))
		}
	}
}

// gate runs the identity gate on first use. On refusal it returns the
// frame that answers the request which needed the mapping.
func (cn *conn) gate() (refusal wire.Frame, ok bool) {
	if cn.gated || cn.cfg.Gate == nil {
		return wire.Frame{}, true
	}
	local, err := cn.cfg.Gate(cn.peer.Identity)
	if err != nil {
		return cn.errorFrame(fmt.Sprintf("gatekeeper: %v", err)), false
	}
	cn.peer.Local, cn.gated = local, true
	return wire.Frame{}, true
}

// serveMux serves a multiplexed connection: every frame carries a
// correlation ID and up to Parallelism requests run concurrently, reusing
// the one handshake and gate result. The worker slot is claimed before
// the next frame is read, so a saturated connection back-pressures its
// peer instead of buffering.
func (cn *conn) serveMux() {
	instr := &cn.cfg.Instruments
	instr.MuxConns.Inc()
	sem := make(chan struct{}, cn.cfg.Parallelism)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		sem <- struct{}{}
		f, err := cn.c.Read()
		if err != nil {
			return
		}
		id, req, err := wire.DecodeMux(f)
		if err != nil {
			// A peer that negotiated mux and then sends uncorrelated
			// frames is broken; count the violation and drop it.
			instr.Conn.FrameErrors.Inc()
			return
		}
		if refusal, ok := cn.gate(); !ok {
			_ = cn.c.WritePrefixed(context.Background(), wire.Prefix{Mux: true, ID: id}, refusal)
			return
		}
		wg.Add(1)
		go cn.work(id, req, sem, &wg)
	}
}

// work runs one mux'd request on its own goroutine and hands its slot
// back. Conn serializes concurrent writers; responses may leave in any
// completion order because the ID re-pairs them.
func (cn *conn) work(id uint64, req wire.Frame, sem chan struct{}, wg *sync.WaitGroup) {
	instr := &cn.cfg.Instruments
	instr.MuxInFlight.Inc()
	resp := cn.handle(req)
	instr.MuxInFlight.Dec()
	_ = cn.c.WritePrefixed(context.Background(), wire.Prefix{Mux: true, ID: id}, resp)
	<-sem
	wg.Done()
}

// scopes holds the trace bookkeeping of requests between uses: one
// request's Scope serves a later one once its handler has returned, so a
// traced request allocates nothing for its spans.
var scopes = sync.Pool{New: func() any { return new(telemetry.Scope) }}

// handle joins the request's trace, bounds its context, and calls the
// handler.
func (cn *conn) handle(f wire.Frame) wire.Frame {
	cfg := cn.cfg
	ctx := context.Background()
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	var root *telemetry.Span
	if cfg.Tracer != nil {
		sc := scopes.Get().(*telemetry.Scope)
		defer scopes.Put(sc)
		var err error
		if ctx, root, f, err = cn.joinTrace(ctx, sc, f); err != nil {
			cfg.Instruments.Conn.FrameErrors.Inc()
			return cn.errorFrame(err.Error())
		}
	}
	resp := cfg.Handler(ctx, &cn.peer, f)
	if root != nil {
		if resp.Verb == cfg.ErrorVerb {
			root.Fail(string(resp.Payload))
		}
		root.End()
	}
	return resp
}

// joinTrace strips a negotiated trace-context prefix and roots the
// request's span tree in sc. It is its own function so that its locals
// are off the stack while the handler runs: request goroutines start on
// small stacks, and growing one costs more than the session's whole share
// of a cached query.
func (cn *conn) joinTrace(ctx context.Context, sc *telemetry.Scope, f wire.Frame) (context.Context, *telemetry.Span, wire.Frame, error) {
	cfg := cn.cfg
	var p wire.Prefix
	if cn.traced {
		// Join the caller's trace instead of minting one, so multi-hop
		// queries build one coherent tree.
		var err error
		if p, f, err = wire.DecodeTracePrefix(f); err != nil {
			return ctx, nil, f, err
		}
		if !p.Sampled {
			return telemetry.WithTrace(ctx, p.Trace.ID()), nil, f, nil
		}
	}
	// A legacy peer on a tracing server gets a server-local trace: Begin
	// mints one for the zero p.Trace.
	ctx, root := cfg.Tracer.Begin(ctx, sc, p.Trace, p.Parent, rootName(f.Verb))
	root.SetAttr("peer", cn.peer.Identity)
	if cn.hsPending.CompareAndSwap(true, false) {
		cfg.Tracer.RecordSpan(root, "gsi.handshake", cn.hsStart, cn.hsDur, "")
	}
	return ctx, root, f, nil
}

// rootNames interns each verb's root span name, "request:"+verb, so that
// naming a request allocates nothing. A peer can send any verb, so it
// stops growing at maxRootNames and names the rest by concatenation.
var rootNames struct {
	mu    sync.Mutex
	names atomic.Pointer[map[string]string] // copied on write
}

const maxRootNames = 64

func rootName(verb string) string {
	if m := rootNames.names.Load(); m != nil {
		if name, ok := (*m)[verb]; ok {
			return name
		}
	}
	name := "request:" + verb
	rootNames.mu.Lock()
	defer rootNames.mu.Unlock()
	old := rootNames.names.Load()
	if old != nil && len(*old) >= maxRootNames {
		return name
	}
	m := make(map[string]string, maxRootNames)
	if old != nil {
		for k, v := range *old {
			m[k] = v
		}
	}
	m[verb] = name
	rootNames.names.Store(&m)
	return name
}

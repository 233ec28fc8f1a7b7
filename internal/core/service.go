// Package core implements the InfoGram service itself: the unified Grid
// service of paper §6 and Figures 3/4 that answers both job submissions
// and information queries over a single protocol on a single port. "If we
// think abstractly about job execution and an information service, we must
// recognize that they are based on the same principle: A query formulated
// and submitted to a server followed by a stream of information that
// returns the result based on the query" (§4).
//
// The request protocol is GRAMP extended: a SUBMIT frame carries xRSL; if
// the specification is a job it is executed by a job manager exactly as in
// the GRAM baseline, and if it carries info tags the same SUBMIT returns
// the information — "[a]t the protocol level we have replaced an LDAP
// search query with a query cast as a simple job submission through RSL"
// (§6.5). Multi-requests (+) mix both kinds in one round trip.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"infogram/internal/bytecache"
	"infogram/internal/clock"
	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/journal"
	"infogram/internal/logging"
	"infogram/internal/mds"
	"infogram/internal/provider"
	"infogram/internal/rsl"
	"infogram/internal/scheduler"
	"infogram/internal/session"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
	"infogram/internal/xrsl"
	"infogram/internal/zerocopy"
)

// Protocol verbs specific to InfoGram; job verbs are shared with GRAMP
// (gram.VerbSubmit etc.), which is what makes the service backwards
// compatible with GRAM clients.
const (
	// VerbResultLDIF carries an information result in LDIF.
	VerbResultLDIF = "RESULT-LDIF"
	// VerbResultXML carries an information result in XML.
	VerbResultXML = "RESULT-XML"
	// VerbResultDSML carries an information result in DSMLv1.
	VerbResultDSML = "RESULT-DSML"
	// VerbMulti carries the JSON-encoded results of a multi-request.
	VerbMulti = "MULTI"
)

// Config wires an InfoGram service.
type Config struct {
	// ResourceName names this resource in information entry DNs.
	ResourceName string
	// Credential/Trust/Gridmap/Policy form the security layer of the
	// gatekeeper (Figure 3: Security Authentication + Authorization).
	Credential *gsi.Credential
	Trust      *gsi.TrustStore
	Gridmap    *gsi.Gridmap
	Policy     *gsi.Policy
	// Registry holds the key information providers (the system monitor +
	// system information service of Figure 3).
	Registry *provider.Registry
	// Backends are the local schedulers for job execution.
	Backends gram.Backends
	// Log is the logging service of Figure 3 (restart + accounting).
	Log *logging.Logger
	// Journal is the optional durable job-state layer (write-ahead
	// journal + snapshots). When set, every submission and transition is
	// journaled before it is acknowledged, the service serves the job
	// table the journal replayed into, and RecoverJournal resumes its
	// unfinished jobs after a crash. Nil keeps the in-memory behaviour.
	Journal *journal.Journal
	// Telemetry receives the service's metrics; a private registry is
	// created when nil, so instrumentation is always live. Callers that
	// want to expose the metrics (Prometheus endpoint, shared registry)
	// pass their own.
	Telemetry *telemetry.Registry
	// Tracer records request span trees. When nil one is built from
	// TraceOptions (unless DisableTracing is set), so tracing is on by
	// default; the disarmed per-operation cost is a single context
	// lookup.
	Tracer *telemetry.Tracer
	// TraceOptions configures the tracer built when Tracer is nil
	// (sample rate, slow-trace threshold, store capacity).
	TraceOptions telemetry.TracerOptions
	// DisableTracing turns span recording and the trace capability off
	// entirely; the server then declines trace like a pre-trace peer.
	DisableTracing bool
	// Clock defaults to the system clock.
	Clock clock.Clock
	// Env provides server-side RSL substitution variables.
	Env rsl.Env
	// RequestTimeout, when positive, bounds every connection I/O operation
	// and every request's handling: the handshake, each frame read and
	// write (so a client feeding or draining bytes too slowly is cut off),
	// and the evaluation of each SUBMIT. It also bounds the idle wait for
	// the next request, so clients that park connections longer than this
	// must reconnect (the client's retry policy does so transparently).
	// Zero disables all of these bounds.
	RequestTimeout time.Duration
	// ProviderTimeout, when positive, bounds each information provider's
	// retrieval and switches info queries from the paper's all-or-nothing
	// §6.3 semantics to graceful degradation: keywords whose provider
	// fails or times out are reported in a degraded status entry while the
	// rest of the reply is delivered. Zero keeps all-or-nothing.
	ProviderTimeout time.Duration
	// Quota is the admission-control policy: §5.3 contracts whose rate=
	// clauses meter each identity with a token bucket, charged before any
	// request work happens (an empty bucket answers REJECT with a
	// retry-after hint). Nil — or a policy without rate clauses — leaves
	// admission unmetered. It is deliberately separate from Policy:
	// Authorize decides *whether* an identity may do something, Admit
	// decides *how much*, and most deployments want the quota file
	// independent of the authorization file.
	Quota *gsi.Policy
	// MaxInflight, when positive, bounds concurrent request execution
	// across all connections (the global backpressure gate). Requests
	// beyond it wait briefly for a slot; requests beyond the wait queue
	// are shed with REJECT. Zero disables the gate.
	MaxInflight int
	// ShedQueue bounds the backpressure wait queue; the shed thresholds
	// are priority-dependent (low sheds at half, normal at three
	// quarters, high at full). Zero defaults to 2*MaxInflight.
	ShedQueue int
	// QueueTimeout bounds how long a request may wait for an inflight
	// slot before being shed. Zero defaults to DefaultQueueTimeout.
	QueueTimeout time.Duration
	// SubmitBacklog, when positive, refuses job submissions with REJECT
	// while the selected backend already holds this many pending tasks,
	// before the job is registered or journaled.
	SubmitBacklog int
	// CacheTTL, when positive, enables the sharded response cache: fully
	// rendered information bodies are cached by (registry generation,
	// keywords, filter, format, mode) and cache hits are written to the
	// wire zero-copy, skipping collect, filter, and render entirely. The
	// effective per-entry TTL is min(CacheTTL, the smallest provider TTL
	// among the covered keywords), so a blob never outlives the §5.1
	// freshness of its inputs; the per-keyword provider cache remains the
	// fill path on miss, preserving §6.2 single-flight and
	// inter-execution-delay semantics. Zero disables the layer.
	CacheTTL time.Duration
	// CacheMaxBytes is the response cache's total byte budget; 0 selects
	// bytecache.DefaultMaxBytes.
	CacheMaxBytes int64
}

// Service is one InfoGram instance: GRAM's gatekeeper, whose job half
// it embeds, with the information service added behind the same session.
type Service struct {
	*gram.Gatekeeper
	cfg    Config
	server *session.Server
	info   *infoEngine
	resp   *respCache
	instr  *instruments
	gate   *gate
}

// NewService builds an InfoGram service.
func NewService(cfg Config) *Service {
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	if cfg.Policy == nil {
		cfg.Policy = gsi.AllowAll()
	}
	if cfg.Registry == nil {
		cfg.Registry = provider.NewRegistry(cfg.Clock)
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	cfg.Telemetry.MarkStart(cfg.Clock.Now())
	// Per-keyword cache counters, for providers registered before and
	// after this point.
	cfg.Registry.SetTelemetry(cfg.Telemetry)
	// The self-monitoring provider (§4 dogfooded): the service's own
	// telemetry is just another key information provider, queryable with
	// &(info=selfmetrics). TTL 0 = execute on every request, so the
	// answer always reflects the current counters.
	if _, ok := cfg.Registry.Lookup(provider.SelfMetricsKeyword); !ok {
		cfg.Registry.Register(provider.NewSelfMetrics(cfg.Telemetry), provider.RegisterOptions{})
	}
	if cfg.Tracer == nil && !cfg.DisableTracing {
		opts := cfg.TraceOptions
		if opts.Telemetry == nil {
			opts.Telemetry = cfg.Telemetry
		}
		cfg.Tracer = telemetry.NewTracer(opts)
	}
	// The tracing counterpart of selfmetrics: retained traces are just
	// another key information provider, queryable with &(info=selftrace).
	if cfg.Tracer != nil {
		if _, ok := cfg.Registry.Lookup(provider.SelfTraceKeyword); !ok {
			cfg.Registry.Register(provider.NewSelfTrace(cfg.Tracer), provider.RegisterOptions{})
		}
	}
	s := &Service{cfg: cfg, instr: newInstruments(cfg.Telemetry)}
	s.Gatekeeper = gram.NewGatekeeper(cfg.Policy, cfg.Env, gram.ManagerConfig{
		Backends:     cfg.Backends,
		Log:          cfg.Log,
		Journal:      cfg.Journal,
		Clock:        cfg.Clock,
		SpawnLatency: s.instr.spawnLatency,
		JobsSpawned:  s.instr.jobsSpawned,
		MaxBacklog:   cfg.SubmitBacklog,
	})
	s.gate = newGate(cfg.MaxInflight, cfg.ShedQueue, cfg.QueueTimeout)
	s.info = &infoEngine{
		resource:        cfg.ResourceName,
		registry:        cfg.Registry,
		providerTimeout: cfg.ProviderTimeout,
	}
	if cfg.CacheTTL > 0 {
		s.resp = newRespCache(cfg)
	}
	sc := session.Config{
		Credential:  cfg.Credential,
		Trust:       cfg.Trust,
		Clock:       cfg.Clock,
		Timeout:     cfg.RequestTimeout,
		ErrorVerb:   gram.VerbError,
		Gate:        cfg.Gridmap.Map,
		Tracer:      cfg.Tracer,
		Instruments: s.instr.session,
		Handler:     s.dispatch,
	}
	if cfg.Journal != nil {
		// A journaled leader grants repl and ships its history plus a
		// live record feed (repl.go).
		sc.Repl = s.serveRepl
	}
	s.server = session.NewServer(sc)
	return s
}

// Listen binds the service and returns the bound address.
func (s *Service) Listen(addr string) (string, error) {
	bound, err := s.server.Listen(addr)
	if err != nil {
		return "", err
	}
	s.Bind(bound)
	return bound, nil
}

// Addr returns the bound address.
func (s *Service) Addr() string { return s.server.Addr() }

// Registry returns the provider registry.
func (s *Service) Registry() *provider.Registry { return s.cfg.Registry }

// AcceptedConns reports accepted connections (experiments E3/E4).
func (s *Service) AcceptedConns() int64 { return s.server.AcceptedConns() }

// Telemetry returns the service's metrics registry (for exposition or
// embedding into a larger one).
func (s *Service) Telemetry() *telemetry.Registry { return s.cfg.Telemetry }

// Tracer returns the service's tracer (nil when tracing is disabled).
func (s *Service) Tracer() *telemetry.Tracer { return s.cfg.Tracer }

// Close shuts the service down.
func (s *Service) Close() error {
	err := s.server.Close()
	if gerr := s.Gatekeeper.Close(); err == nil {
		err = gerr
	}
	return err
}

// NewPersister wires the response cache's snapshot lifecycle at path, or
// returns nil when the cache is disabled. Start it after NewService, which
// registers the self providers the snapshot's registry digest covers, and
// before Listen, so the first request already hits warm; Close it after
// Service.Close, so the final snapshot holds the cache's last state.
func (s *Service) NewPersister(path string) *bytecache.Persister {
	if s.resp == nil {
		return nil
	}
	return s.resp.c.Persister(path, "resp")
}

// GRIS exposes the same provider registry through the MDS directory
// protocol, the backward-compatibility path of §6.5: "this information
// service can easily be integrated into the Globus MDS information service
// architecture". The returned GRIS can be registered with any GIIS.
func (s *Service) GRIS() *mds.GRIS {
	return mds.NewGRIS(mds.GRISConfig{
		ResourceName:  s.cfg.ResourceName,
		Registry:      s.cfg.Registry,
		Credential:    s.cfg.Credential,
		Trust:         s.cfg.Trust,
		Policy:        s.cfg.Policy,
		Clock:         s.cfg.Clock,
		Tracer:        s.cfg.Tracer,
		CacheTTL:      s.cfg.CacheTTL,
		CacheMaxBytes: s.cfg.CacheMaxBytes,
	})
}

// dispatch is the service's session handler: it instruments and evaluates
// one request frame, returning the response frame. It runs concurrently
// for mux'd connections: every layer below it — policy, job manager,
// provider cache, telemetry — already serves concurrent connections, so
// concurrent dispatches on one connection need no extra locking. Counting
// happens before handling, so a request that queries selfmetrics sees
// itself in the answer; verbs outside the instrumented set fall into the
// catch-all "unknown" series rather than indexing the per-verb maps with a
// hostile key.
func (s *Service) dispatch(ctx context.Context, sp *session.Peer, f wire.Frame) wire.Frame {
	peer := &sp.Peer
	root := telemetry.SpanFrom(ctx)
	s.instr.requestCounter(f.Verb).Inc()
	// Admission runs after the request is counted (so selfmetrics sees the
	// arrival) but before any handling: a rejected request costs one quota
	// charge, one frame write, and nothing else — it never touches the
	// per-verb latency series, because measuring the latency of saying
	// "no" into the same histogram as real work would mask the collapse
	// the histogram exists to reveal.
	release, reject, admitted := s.admit(f.Verb, peer, root)
	if !admitted {
		return reject
	}
	defer release()
	s.instr.inFlight.Inc()
	start := s.cfg.Clock.Now()
	var resp wire.Frame
	switch f.Verb {
	case gram.VerbPing:
		resp = wire.Frame{Verb: gram.VerbPong}
	case gram.VerbSubmit:
		// The payload buffer is freshly allocated per frame and never
		// reused, so it may be aliased as a string without a copy.
		resp = s.handleSubmit(ctx, zerocopy.String(f.Payload), peer, sp.Local)
	default:
		var ok bool
		if resp, ok = s.Manager().Control(f); !ok {
			resp = errorFrame(fmt.Sprintf("infogram: unknown verb %s", f.Verb))
		}
	}
	elapsed := s.cfg.Clock.Now().Sub(start)
	s.instr.requestLatency(f.Verb).ObserveRef(elapsed, telemetry.RefFrom(ctx))
	s.instr.inFlight.Dec()
	return resp
}

// errorFrame builds an ERROR response.
func errorFrame(msg string) wire.Frame {
	return wire.Frame{Verb: gram.VerbError, Payload: []byte(msg)}
}

// PartResult is one element of a multi-request response.
type PartResult struct {
	Kind    string `json:"kind"` // "job", "info", or "error"
	Contact string `json:"contact,omitempty"`
	Format  string `json:"format,omitempty"`
	Body    string `json:"body,omitempty"`
	Error   string `json:"error,omitempty"`
	// Degraded marks an info part answered partially because one or more
	// providers failed or timed out.
	Degraded bool `json:"degraded,omitempty"`
	// RetryAfterMS, on an error part, marks the refusal as backpressure
	// (scheduler backlog saturated) rather than failure, carrying the
	// server's backoff hint. A single-part submission renders it as a
	// REJECT frame instead of an ERROR.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// handleSubmit dispatches one SUBMIT frame: job, info, or multi-request.
func (s *Service) handleSubmit(ctx context.Context, src string, peer *gsi.Peer, local string) wire.Frame {
	// Only a $(NAME) reference reads the substitution environment.
	var env rsl.Env
	if strings.IndexByte(src, '$') >= 0 {
		env = s.Env(local)
	}
	reqs, err := xrsl.Decode(src, env)
	if err != nil {
		return errorFrame(err.Error())
	}
	if len(reqs) == 1 {
		return partFrame(s.evalPart(ctx, reqs[0], peer, local))
	}
	// Multi-request: evaluate every part, report per-part outcomes in
	// request order. Parts are independent requests (jobs and info mixed),
	// so they evaluate concurrently under the same fan-out bound as
	// provider collection; every layer a part touches — policy, job
	// manager, provider cache, telemetry — already serves concurrent
	// connections, so concurrent parts of one connection need no extra
	// locking, and the per-part info/job counters stay exact.
	parts := make([]PartResult, len(reqs))
	evalSpanned := func(ctx context.Context, i int, req *xrsl.Request) PartResult {
		pctx, sp := telemetry.StartSpan(ctx, "part")
		sp.SetAttr("index", strconv.Itoa(i))
		part := s.evalPart(pctx, req, peer, local)
		if part.Kind == "error" {
			sp.Fail(part.Error)
		}
		sp.End()
		return part
	}
	if bound := min(s.cfg.Registry.Parallelism(), len(reqs)); bound <= 1 {
		for i, req := range reqs {
			parts[i] = evalSpanned(ctx, i, req)
		}
	} else {
		sem := make(chan struct{}, bound)
		var wg sync.WaitGroup
		for i, req := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				parts[i] = evalSpanned(ctx, i, req)
			}()
		}
		wg.Wait()
	}
	payload, err := json.Marshal(parts)
	if err != nil {
		return errorFrame(err.Error())
	}
	return wire.Frame{Verb: VerbMulti, Payload: payload}
}

// partFrame renders a single request part's outcome as its response
// frame.
func partFrame(part PartResult) wire.Frame {
	switch part.Kind {
	case "job":
		return wire.Frame{Verb: gram.VerbSubmitted, Payload: []byte(part.Contact)}
	case "info":
		verb := VerbResultLDIF
		switch xrsl.Format(part.Format) {
		case xrsl.FormatXML:
			verb = VerbResultXML
		case xrsl.FormatDSML:
			verb = VerbResultDSML
		}
		// The rendered body is written once and never mutated, so the
		// frame may alias it instead of copying.
		return wire.Frame{Verb: verb, Payload: zerocopy.Bytes(part.Body)}
	default:
		if part.RetryAfterMS > 0 {
			return wire.EncodeReject(wire.Reject{
				RetryAfter: time.Duration(part.RetryAfterMS) * time.Millisecond,
				Scope:      wire.RejectScopeBacklog,
				Reason:     part.Error,
			})
		}
		return errorFrame(part.Error)
	}
}

// evalPart authorizes and executes one request part, counting it into the
// info-query or job-submission counter before execution so a selfmetrics
// query observes itself.
func (s *Service) evalPart(ctx context.Context, req *xrsl.Request, peer *gsi.Peer, local string) PartResult {
	switch req.Kind {
	case xrsl.KindJob:
		s.instr.jobSubmissions.Inc()
		contact, err := s.SubmitJob(ctx, req, peer.Identity, local)
		if err != nil {
			// A saturated backlog is backpressure, not failure: surface the
			// drain estimate so the response becomes a REJECT with a
			// retry-after hint instead of an opaque error.
			var sat *scheduler.SaturatedError
			if errors.As(err, &sat) {
				s.instr.admissionRejected(wire.RejectScopeBacklog).Inc()
				return PartResult{Kind: "error", Error: err.Error(), RetryAfterMS: max(sat.RetryAfter.Milliseconds(), 1)}
			}
			return PartResult{Kind: "error", Error: err.Error()}
		}
		return PartResult{Kind: "job", Contact: contact}
	case xrsl.KindInfo:
		s.instr.infoQueries.Inc()
		if err := s.cfg.Policy.Authorize(peer.Identity, gsi.OpInfoQuery, s.cfg.Clock.Now()); err != nil {
			return PartResult{Kind: "error", Error: err.Error()}
		}
		s.logInfoQuery(ctx, req.Info, peer, local)
		// Response-cache hit: the stored blob is the rendered body, served
		// zero-copy — no collect, no filter, no render, no allocation
		// beyond what the transport needs.
		useCache := s.resp != nil && s.resp.cacheable(req.Info)
		// The generation is read once, before the lookup, and the stores
		// below reuse it: a provider registered mid-collect orphans this
		// answer instead of being hidden behind it.
		var gen uint64
		if useCache {
			gen = s.resp.c.Generation()
			if body, negErr, ok := s.resp.lookup(req.Info, gen); ok {
				if negErr != "" {
					return PartResult{Kind: "error", Error: negErr}
				}
				return PartResult{Kind: "info", Format: string(req.Info.Format), Body: body}
			}
		}
		ictx, isp := telemetry.StartSpan(ctx, "info.collect")
		body, empty, degraded, err := s.info.Answer(ictx, req.Info)
		if err != nil {
			isp.Fail(err.Error())
		}
		isp.End()
		if err != nil {
			// Unknown keywords are deterministic failures: cache the error
			// text under the negative TTL so repeated bad queries stop
			// paying resolution cost. Transient provider errors are not
			// cached.
			var unk *provider.UnknownKeywordError
			if useCache && errors.As(err, &unk) {
				s.resp.storeNegative(req.Info, gen, err.Error())
			}
			return PartResult{Kind: "error", Error: err.Error()}
		}
		if degraded {
			s.instr.requestsDegraded.Inc()
		}
		// Degraded bodies are partial — caching one would pin the outage
		// into every answer for a TTL.
		if useCache && !degraded {
			s.resp.store(req.Info, gen, body, empty)
		}
		return PartResult{Kind: "info", Format: string(req.Info.Format), Body: body, Degraded: degraded}
	default:
		return PartResult{Kind: "error", Error: "infogram: unclassifiable request"}
	}
}

func (s *Service) logInfoQuery(ctx context.Context, info *xrsl.InfoRequest, peer *gsi.Peer, local string) {
	if s.cfg.Log == nil {
		return
	}
	keywords := info.Keywords
	if info.Schema {
		keywords = []string{"schema"}
	} else if info.All || len(keywords) == 0 {
		keywords = []string{"all"}
	}
	_ = s.cfg.Log.Append(logging.Record{
		Time:     s.cfg.Clock.Now(),
		Kind:     logging.KindInfoQuery,
		Identity: peer.Identity,
		Owner:    local,
		Keywords: keywords,
		Trace:    string(telemetry.TraceFrom(ctx)),
	})
}

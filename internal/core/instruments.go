package core

import (
	"strings"
	"time"

	"infogram/internal/clock"
	"infogram/internal/gram"
	"infogram/internal/logging"
	"infogram/internal/session"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
)

// instruments bundles every telemetry handle the service touches on the
// request path. All handles are resolved once at construction so the hot
// path does no registry lookups; the per-verb maps are read-only after
// newInstruments returns.
type instruments struct {
	tel *telemetry.Registry

	// session is what the session layer feeds: listener, connection,
	// handshake-outcome and mux series.
	session session.Instruments

	inFlight         *telemetry.Gauge
	infoQueries      *telemetry.Counter
	jobSubmissions   *telemetry.Counter
	requestsDegraded *telemetry.Counter

	replFollowers      *telemetry.Gauge
	replRecordsShipped *telemetry.Counter

	admissionAdmitted *telemetry.Counter
	admissionWaiting  *telemetry.Gauge
	admissionWait     *telemetry.Histogram
	admissionRejects  map[string]*telemetry.Counter
	rejectsOther      *telemetry.Counter

	spawnLatency *telemetry.Histogram
	jobsSpawned  *telemetry.Counter

	requests map[string]*telemetry.Counter
	latency  map[string]*telemetry.Histogram
	// unknownRequests/unknownLatency absorb verbs outside the
	// instrumented set, so a hostile or future verb never indexes the
	// maps with a missing key.
	unknownRequests *telemetry.Counter
	unknownLatency  *telemetry.Histogram
}

// instrumentedVerbs is the protocol surface measured per verb.
var instrumentedVerbs = []string{
	gram.VerbPing, gram.VerbSubmit, gram.VerbStatus, gram.VerbCancel, gram.VerbSignal,
}

// newInstruments registers the service's metric families in tel.
func newInstruments(tel *telemetry.Registry) *instruments {
	in := &instruments{
		tel: tel,

		session: session.Instruments{
			Server: wire.ServerInstruments{
				Accepted: tel.Counter("infogram_connections_accepted_total", "connections accepted by the gatekeeper listener"),
				Active:   tel.Gauge("infogram_connections_active", "connections currently being served"),
			},
			Conn: wire.ConnInstruments{
				BytesRead:    tel.Counter("infogram_wire_bytes_read_total", "protocol bytes read from clients, framing included"),
				BytesWritten: tel.Counter("infogram_wire_bytes_written_total", "protocol bytes written to clients, framing included"),
				FrameErrors:  tel.Counter("infogram_wire_frame_errors_total", "malformed or oversized protocol frames"),
			},
			AuthOK:      tel.Counter("infogram_auth_total", "GSI handshake outcomes", telemetry.Label{Key: "outcome", Value: "ok"}),
			AuthFailed:  tel.Counter("infogram_auth_total", "GSI handshake outcomes", telemetry.Label{Key: "outcome", Value: "failed"}),
			AuthExpired: tel.Counter("infogram_auth_total", "GSI handshake outcomes", telemetry.Label{Key: "outcome", Value: "expired"}),
			AuthLatency: tel.Histogram("infogram_auth_duration_seconds", "GSI mutual-authentication handshake latency"),
			MuxConns:    tel.Counter("infogram_mux_connections_total", "connections upgraded to multiplexed framing"),
			MuxInFlight: tel.Gauge("infogram_mux_inflight", "mux'd requests currently executing, summed over all connections"),
		},

		inFlight:         tel.Gauge("infogram_requests_in_flight", "protocol requests currently executing"),
		infoQueries:      tel.Counter("infogram_info_queries_total", "information query parts evaluated"),
		jobSubmissions:   tel.Counter("infogram_job_submissions_total", "job submission parts evaluated"),
		requestsDegraded: tel.Counter("infogram_requests_degraded_total", "information replies answered partially because a provider failed or timed out"),

		replFollowers:      tel.Gauge("infogram_repl_followers", "hot-standby followers currently tailing the journal"),
		replRecordsShipped: tel.Counter("infogram_repl_records_shipped_total", "live journal records shipped to followers"),

		admissionAdmitted: tel.Counter("infogram_admission_admitted_total", "requests passed through the admission gates"),
		admissionWaiting:  tel.Gauge("infogram_admission_waiting", "requests parked in the backpressure wait queue"),
		admissionWait:     tel.Histogram("infogram_admission_wait_seconds", "time spent waiting for a global inflight slot"),
		admissionRejects:  make(map[string]*telemetry.Counter, 3),

		spawnLatency: tel.Histogram("infogram_gram_spawn_duration_seconds", "time from job submission to manager goroutine launch"),
		jobsSpawned:  tel.Counter("infogram_gram_jobs_spawned_total", "job manager goroutines launched"),

		requests: make(map[string]*telemetry.Counter, len(instrumentedVerbs)),
		latency:  make(map[string]*telemetry.Histogram, len(instrumentedVerbs)),
	}
	for _, verb := range instrumentedVerbs {
		l := telemetry.Label{Key: "verb", Value: strings.ToLower(verb)}
		in.requests[verb] = tel.Counter("infogram_requests_total", "protocol requests dispatched, by verb", l)
		in.latency[verb] = tel.Histogram("infogram_request_duration_seconds", "request handling latency, by verb", l)
	}
	unknown := telemetry.Label{Key: "verb", Value: "unknown"}
	in.unknownRequests = tel.Counter("infogram_requests_total", "protocol requests dispatched, by verb", unknown)
	in.unknownLatency = tel.Histogram("infogram_request_duration_seconds", "request handling latency, by verb", unknown)
	for _, scope := range []string{wire.RejectScopeQuota, wire.RejectScopeOverload, wire.RejectScopeBacklog} {
		in.admissionRejects[scope] = tel.Counter("infogram_admission_rejected_total",
			"requests refused by admission control, by gate", telemetry.Label{Key: "scope", Value: scope})
	}
	in.rejectsOther = tel.Counter("infogram_admission_rejected_total",
		"requests refused by admission control, by gate", telemetry.Label{Key: "scope", Value: "other"})
	return in
}

// admissionRejected returns the per-scope rejection counter, with a
// catch-all for unexpected scopes so callers never index a missing key.
func (in *instruments) admissionRejected(scope string) *telemetry.Counter {
	if c, ok := in.admissionRejects[scope]; ok {
		return c
	}
	return in.rejectsOther
}

// requestCounter returns the per-verb request counter, or the catch-all
// "unknown" counter for verbs outside the instrumented set.
func (in *instruments) requestCounter(verb string) *telemetry.Counter {
	if c, ok := in.requests[verb]; ok {
		return c
	}
	return in.unknownRequests
}

// requestLatency is requestCounter's histogram counterpart.
func (in *instruments) requestLatency(verb string) *telemetry.Histogram {
	if h, ok := in.latency[verb]; ok {
		return h
	}
	return in.unknownLatency
}

// span appends a span record to log, tagging it with the trace ID and —
// when a live span is supplied — the span/parent IDs, so a grep for the
// trace correlates log records with the stored span tree. A nil log or
// empty trace drops the record; a nil span leaves the IDs blank.
func span(log *logging.Logger, clk clock.Clock, trace telemetry.TraceID, sp *telemetry.Span, name, contact string, elapsed time.Duration) {
	if log == nil || trace == "" {
		return
	}
	_ = log.Append(logging.Record{
		Time:      clk.Now(),
		Kind:      logging.KindSpan,
		Contact:   contact,
		Trace:     string(trace),
		Span:      name,
		SpanID:    sp.ID().String(),
		ParentID:  sp.Parent().String(),
		ElapsedUS: elapsed.Microseconds(),
	})
}

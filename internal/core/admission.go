package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"infogram/internal/gsi"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
)

// This file is the service's admission control: the decisions made *before*
// a request is parsed, authorized, or executed. The paper's gatekeeper
// authenticates and authorizes; at production scale it also has to decide
// how much work to accept, because an open-loop arrival curve does not slow
// down when the server does — requests keep arriving at the offered rate
// and anything the server cannot refuse cheaply turns into unbounded queue
// growth (the GRIS/GIIS collapse measured in the MDS performance studies).
// Two gates run in order:
//
//  1. Quota: the identity's §5.3 contract may carry rate=/burst=, enforced
//     as a per-identity token bucket (gsi.Policy.Admit).
//  2. Backpressure: a global max-inflight slot gate with a bounded wait
//     queue; when the queue passes a priority-dependent threshold the
//     request is shed instead of parked.
//
// Both refusals answer with a REJECT frame carrying a retry-after hint —
// the cheapest response the server can produce, sent before any provider
// or scheduler work.

// DefaultQueueTimeout bounds how long an admitted-but-waiting request may
// sit in the backpressure queue before it is shed, when Config.QueueTimeout
// is zero. Waiting longer than a second for a slot means the server is far
// behind the arrival rate; answering REJECT then is kinder than answering
// late.
const DefaultQueueTimeout = time.Second

// gate is the global max-inflight backpressure gate. Slots bound
// concurrent request execution across every connection (composing with the
// per-connection session.DefaultParallelism bound, which only limits one client);
// the wait queue absorbs short bursts; the shed thresholds turn sustained
// excess into fast rejections, low-priority classes first.
type gate struct {
	slots   chan struct{}
	shed    int           // wait-queue length beyond which high priority sheds
	timeout time.Duration // max time a request may wait for a slot
	waiting atomic.Int64
}

// newGate builds the backpressure gate; maxInflight <= 0 disables it.
func newGate(maxInflight, shedQueue int, timeout time.Duration) *gate {
	if maxInflight <= 0 {
		return nil
	}
	if shedQueue <= 0 {
		shedQueue = 2 * maxInflight
	}
	if timeout <= 0 {
		timeout = DefaultQueueTimeout
	}
	return &gate{
		slots:   make(chan struct{}, maxInflight),
		shed:    shedQueue,
		timeout: timeout,
	}
}

// threshold is the wait-queue occupancy at which priority p sheds: low
// classes give up at half the queue, normal at three quarters, high only
// when it is full — so under sustained overload the queue keeps serving
// interactive clients while batch clients see fast REJECTs.
func (g *gate) threshold(p gsi.Priority) int {
	switch {
	case p > gsi.PriorityNormal:
		return g.shed
	case p < gsi.PriorityNormal:
		return (g.shed + 1) / 2
	default:
		return (3*g.shed + 3) / 4
	}
}

// hint estimates a retry-after for a shed request: proportional to the
// queue ahead of it, bounded so clients never park for long on a guess.
func (g *gate) hint(waiting int) time.Duration {
	d := time.Duration(1+waiting) * 20 * time.Millisecond
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// acquire claims an execution slot, waiting up to the gate timeout when the
// server is at capacity. It returns ok=false — with a retry-after hint —
// when the request should be shed instead: the wait queue is already past
// the priority's threshold, or the wait timed out. A nil gate admits
// everything.
func (g *gate) acquire(p gsi.Priority, waitGauge *telemetry.Gauge) (retryAfter time.Duration, ok bool) {
	if g == nil {
		return 0, true
	}
	select {
	case g.slots <- struct{}{}:
		return 0, true
	default:
	}
	w := int(g.waiting.Load())
	if w >= g.threshold(p) {
		return g.hint(w), false
	}
	g.waiting.Add(1)
	waitGauge.Inc()
	defer func() {
		g.waiting.Add(-1)
		waitGauge.Dec()
	}()
	timer := time.NewTimer(g.timeout)
	defer timer.Stop()
	select {
	case g.slots <- struct{}{}:
		return 0, true
	case <-timer.C:
		return g.hint(int(g.waiting.Load())), false
	}
}

// release frees an acquired slot.
func (g *gate) release() {
	if g != nil {
		<-g.slots
	}
}

// admit runs both admission gates for one request. On refusal it returns
// the REJECT response frame and admitted=false; on admission the caller
// must call release() when the request finishes. The root span (may be
// nil) is tagged rather than failed: a rejection is the mechanism working,
// not an error, but it should still be visible in the trace store.
func (s *Service) admit(verb string, peer *gsi.Peer, root *telemetry.Span) (release func(), reject wire.Frame, admitted bool) {
	adm := s.cfg.Quota.Admit(peer.Identity, s.cfg.Clock.Now(), 1)
	if !adm.OK {
		s.instr.admissionRejected(wire.RejectScopeQuota).Inc()
		rejectSpan(root, wire.RejectScopeQuota, adm.RetryAfter)
		return nil, wire.EncodeReject(wire.Reject{
			RetryAfter: adm.RetryAfter,
			Scope:      wire.RejectScopeQuota,
			Reason:     adm.Rule,
		}), false
	}
	start := s.cfg.Clock.Now()
	retryAfter, ok := s.gate.acquire(adm.Priority, s.instr.admissionWaiting)
	if s.gate != nil {
		s.instr.admissionWait.Observe(s.cfg.Clock.Now().Sub(start))
	}
	if !ok {
		s.instr.admissionRejected(wire.RejectScopeOverload).Inc()
		rejectSpan(root, wire.RejectScopeOverload, retryAfter)
		return nil, wire.EncodeReject(wire.Reject{
			RetryAfter: retryAfter,
			Scope:      wire.RejectScopeOverload,
			Reason:     fmt.Sprintf("server at capacity (verb %s, priority %s)", verb, adm.Priority),
		}), false
	}
	s.instr.admissionAdmitted.Inc()
	return s.gate.release, wire.Frame{}, true
}

// rejectSpan tags a root span with the rejection outcome.
func rejectSpan(root *telemetry.Span, scope string, retryAfter time.Duration) {
	if root == nil {
		return
	}
	root.SetAttr("rejected", scope)
	root.SetAttr("retry_after_ms", fmt.Sprintf("%d", retryAfter.Milliseconds()))
}

// RejectedError is the client-side face of a REJECT frame: the server
// refused the request before doing any work on it. It is not a transport
// failure — the connection stays healthy and is kept — and the client does
// not retry it like one: hammering a server that is explicitly saying "not
// now" is how overload turns into collapse. Callers that want to retry
// should wait at least RetryAfter first; because rejection happens before
// parsing or execution, retrying is safe even for submissions.
type RejectedError struct {
	// Scope names the gate that refused ("quota", "overload", "backlog").
	Scope string
	// RetryAfter is the server's backoff hint.
	RetryAfter time.Duration
	// Reason is the server's human-readable explanation.
	Reason string
}

// Error implements the error interface.
func (e *RejectedError) Error() string {
	return fmt.Sprintf("infogram: rejected (%s): retry after %s: %s", e.Scope, e.RetryAfter, e.Reason)
}

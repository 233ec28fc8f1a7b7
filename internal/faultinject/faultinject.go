// Package faultinject provides named failpoints for deterministic fault
// injection across the InfoGram stack. The MDS performance studies the
// ROADMAP cites (Zhang & Schopf; Zhang, Freschl & Schopf) show information
// services failing ungracefully under load — hung providers, dropped
// queries, latency blow-ups. This package lets tests and operators provoke
// exactly those failures on demand so the degradation paths (deadlines,
// retries, partial replies) can be exercised instead of hoped for.
//
// A failpoint is a named hook compiled into the request path:
//
//	wire.read           frame reads (client and server side)
//	wire.write          frame writes (client and server side)
//	wire.mux            mux'd response delivery in the client demultiplexer
//	gsi.handshake       the GSI mutual-authentication handshake
//	provider.collect    per-keyword information collection
//	gram.spawn          job-manager registration and launch
//	scheduler.dispatch  batch-queue task dispatch
//	journal.append      durable job-state journal record appends
//	journal.fsync       journal fsync-to-stable-storage calls
//
// Disarmed failpoints cost one atomic pointer load and a nil check — no
// map lookup, no lock, no allocation — so the hooks stay compiled into
// production builds. Arming is per-process: tests call Arm/Reset, servers
// arm from a flag or the INFOGRAM_FAULTPOINTS environment variable using
// the spec syntax of ArmSpec.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"infogram/internal/telemetry"
)

// Point names one failpoint.
type Point string

// The failpoints compiled into the stack.
const (
	// WireRead fires on every frame read, once the frame has arrived.
	WireRead Point = "wire.read"
	// WireWrite fires at the top of every frame write.
	WireWrite Point = "wire.write"
	// WireMux fires per mux'd response inside the client demultiplexer,
	// so one in-flight call can be poisoned (error, drop, truncate,
	// delay) while its siblings on the same connection complete.
	WireMux Point = "wire.mux"
	// GSIHandshake fires at the start of both handshake sides.
	GSIHandshake Point = "gsi.handshake"
	// ProviderCollect fires once per keyword collected for an info query.
	ProviderCollect Point = "provider.collect"
	// GramSpawn fires before a job manager is registered and launched.
	GramSpawn Point = "gram.spawn"
	// SchedulerDispatch fires when the batch queue dispatches a task.
	SchedulerDispatch Point = "scheduler.dispatch"
	// JournalAppend fires before every job-state journal record append, so
	// a submission can be refused at the durability layer.
	JournalAppend Point = "journal.append"
	// JournalFsync fires before every journal fsync, modelling a disk that
	// stalls or errors exactly at the sync barrier.
	JournalFsync Point = "journal.fsync"
)

// Points returns every known failpoint.
func Points() []Point {
	return []Point{WireRead, WireWrite, WireMux, GSIHandshake, ProviderCollect, GramSpawn, SchedulerDispatch, JournalAppend, JournalFsync}
}

func knownPoint(p Point) bool {
	for _, k := range Points() {
		if k == p {
			return true
		}
	}
	return false
}

// ErrInjected is the base of every error produced by an armed failpoint;
// match with errors.Is to distinguish injected faults from organic ones.
var ErrInjected = errors.New("faultinject: injected fault")

// Action describes what an armed failpoint does when evaluated.
type Action struct {
	// Err, when set, is returned to the caller (wrapped so that
	// errors.Is(err, ErrInjected) holds). An Action with no other field
	// set and a nil Err still returns a generic injected error.
	Err error
	// Delay injects latency before the call proceeds normally.
	Delay time.Duration
	// Hang blocks until the caller's context is cancelled, then returns
	// the context error. Callers without a cancellable context block
	// forever, which is itself a reproduction of the hung-provider
	// failure mode.
	Hang bool
	// Drop discards the frame: reads skip one incoming frame, writes
	// report success without sending. Only the wire points honour it.
	Drop bool
	// Truncate caps the payload at this many bytes (0 = disabled). On
	// writes the frame header still advertises the full length, so the
	// peer sees a sender that died mid-frame. Only the wire points
	// honour it.
	Truncate int
	// Count limits how many evaluations trigger the action; 0 means
	// every evaluation. The failpoint stays armed but inert afterwards.
	Count int64
}

// Verdict carries the wire-specific outcomes of an evaluation; the zero
// value means "proceed normally".
type Verdict struct {
	Drop     bool
	Truncate int
}

// armed is one active failpoint.
type armed struct {
	action    Action
	remaining atomic.Int64 // consumed toward action.Count; <0 disables
	counter   *telemetry.Counter
}

type table map[Point]*armed

var (
	active atomic.Pointer[table]

	mu   sync.Mutex // serializes Arm/Disarm/Reset/SetTelemetry
	tel  *telemetry.Registry
	hits sync.Map // Point -> *atomic.Int64, survives re-arming
)

// SetTelemetry attaches a registry: every trigger increments
// infogram_faultpoints_triggered_total{point=...}. Call before arming.
func SetTelemetry(reg *telemetry.Registry) {
	mu.Lock()
	defer mu.Unlock()
	tel = reg
	// Retrofit counters onto already-armed points.
	cur := active.Load()
	if cur == nil {
		return
	}
	next := make(table, len(*cur))
	for p, a := range *cur {
		na := &armed{action: a.action, counter: triggerCounter(p)}
		na.remaining.Store(a.remaining.Load())
		next[p] = na
	}
	active.Store(&next)
}

// triggerCounter resolves the telemetry counter for p. Caller holds mu.
func triggerCounter(p Point) *telemetry.Counter {
	if tel == nil {
		return nil
	}
	return tel.Counter("infogram_faultpoints_triggered_total",
		"fault-injection failpoint activations",
		telemetry.Label{Key: "point", Value: string(p)})
}

// Arm activates the failpoint with the given action, replacing any
// previous arming of the same point.
func Arm(p Point, a Action) {
	mu.Lock()
	defer mu.Unlock()
	cur := active.Load()
	next := make(table)
	if cur != nil {
		for k, v := range *cur {
			next[k] = v
		}
	}
	na := &armed{action: a, counter: triggerCounter(p)}
	if a.Count > 0 {
		na.remaining.Store(a.Count)
	}
	next[p] = na
	active.Store(&next)
}

// Disarm deactivates one failpoint.
func Disarm(p Point) {
	mu.Lock()
	defer mu.Unlock()
	cur := active.Load()
	if cur == nil {
		return
	}
	if _, ok := (*cur)[p]; !ok {
		return
	}
	if len(*cur) == 1 {
		active.Store(nil)
		return
	}
	next := make(table, len(*cur)-1)
	for k, v := range *cur {
		if k != p {
			next[k] = v
		}
	}
	active.Store(&next)
}

// Reset disarms every failpoint. Tests defer this after arming.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	active.Store(nil)
}

// Armed lists the currently armed points, sorted.
func Armed() []Point {
	cur := active.Load()
	if cur == nil {
		return nil
	}
	out := make([]Point, 0, len(*cur))
	for p := range *cur {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Triggered reports how many times p has fired since process start
// (arming and disarming do not reset it).
func Triggered(p Point) int64 {
	if v, ok := hits.Load(p); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

func recordHit(p Point, a *armed) {
	v, ok := hits.Load(p)
	if !ok {
		v, _ = hits.LoadOrStore(p, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(1)
	a.counter.Inc()
}

// Eval evaluates the failpoint p. Disarmed points return immediately with
// a zero Verdict and nil error; armed points inject their action. The
// context bounds Delay and Hang actions.
func Eval(ctx context.Context, p Point) (Verdict, error) {
	t := active.Load()
	if t == nil {
		return Verdict{}, nil
	}
	a, ok := (*t)[p]
	if !ok {
		return Verdict{}, nil
	}
	if a.action.Count > 0 && a.remaining.Add(-1) < 0 {
		return Verdict{}, nil
	}
	recordHit(p, a)
	if a.action.Delay > 0 {
		t := time.NewTimer(a.action.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return Verdict{}, fmt.Errorf("%w at %s: %w", ErrInjected, p, ctx.Err())
		}
	}
	if a.action.Hang {
		<-ctx.Done()
		return Verdict{}, fmt.Errorf("%w at %s: hang: %w", ErrInjected, p, ctx.Err())
	}
	if a.action.Err != nil {
		return Verdict{}, fmt.Errorf("%w at %s: %w", ErrInjected, p, a.action.Err)
	}
	if a.action.Drop || a.action.Truncate > 0 {
		return Verdict{Drop: a.action.Drop, Truncate: a.action.Truncate}, nil
	}
	if a.action.Delay > 0 {
		return Verdict{}, nil // delay-only: proceed after the pause
	}
	// Bare arm (no action fields): generic injected error.
	return Verdict{}, fmt.Errorf("%w at %s", ErrInjected, p)
}

// ArmSpec arms failpoints from a textual spec, the syntax of the
// infogram-server -faultpoints flag and the INFOGRAM_FAULTPOINTS
// environment variable:
//
//	point=action[*count][,point=action...]
//
// with actions
//
//	error            return an injected error
//	error(msg)       return an injected error carrying msg
//	delay(duration)  sleep, then proceed (e.g. delay(250ms))
//	hang             block until the caller's deadline cancels
//	drop             drop the frame (wire points only)
//	truncate(n)      truncate the payload to n bytes (wire points only)
//
// and an optional *N suffix limiting the action to the first N
// evaluations, e.g. "wire.read=error*2,provider.collect=delay(1s)".
func ArmSpec(spec string) error {
	arms, err := ParseSpec(spec)
	if err != nil {
		return err
	}
	for p, a := range arms {
		Arm(p, a)
	}
	return nil
}

// ParseSpec parses the ArmSpec syntax without arming anything.
func ParseSpec(spec string) (map[Point]Action, error) {
	out := make(map[Point]Action)
	for _, part := range strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == ';' }) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, actionStr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: %q: want point=action", part)
		}
		p := Point(strings.TrimSpace(name))
		if !knownPoint(p) {
			return nil, fmt.Errorf("faultinject: unknown failpoint %q", name)
		}
		a, err := parseAction(strings.TrimSpace(actionStr))
		if err != nil {
			return nil, fmt.Errorf("faultinject: %s: %w", p, err)
		}
		out[p] = a
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("faultinject: empty spec")
	}
	return out, nil
}

func parseAction(s string) (Action, error) {
	var a Action
	if base, count, ok := strings.Cut(s, "*"); ok {
		n, err := strconv.ParseInt(strings.TrimSpace(count), 10, 64)
		if err != nil || n <= 0 {
			return a, fmt.Errorf("bad count %q", count)
		}
		a.Count = n
		s = strings.TrimSpace(base)
	}
	verb, arg := s, ""
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return a, fmt.Errorf("unterminated argument in %q", s)
		}
		verb, arg = s[:i], s[i+1:len(s)-1]
	}
	switch verb {
	case "error":
		if arg != "" {
			a.Err = errors.New(arg)
		} else {
			a.Err = errors.New("armed error")
		}
	case "delay":
		d, err := time.ParseDuration(arg)
		if err != nil || d <= 0 {
			return a, fmt.Errorf("bad delay %q", arg)
		}
		a.Delay = d
	case "hang":
		a.Hang = true
	case "drop":
		a.Drop = true
	case "truncate":
		n, err := strconv.Atoi(arg)
		if err != nil || n <= 0 {
			return a, fmt.Errorf("bad truncate length %q", arg)
		}
		a.Truncate = n
	default:
		return a, fmt.Errorf("unknown action %q (want error, delay, hang, drop, or truncate)", verb)
	}
	return a, nil
}

// Package cache implements the information-caching model of the paper:
// each key information provider caches its last result with a time-to-live
// (§5.1), a minimum inter-execution delay (§6.2), coalesced single-flight
// updates ("If multiple updateState methods are invoked, monitors are used
// to perform only one such update at a time", §6.2), the three response
// modes of the xRSL response tag (§6.5), and quality-threshold-driven
// regeneration (§6.3).
package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"infogram/internal/clock"
	"infogram/internal/quality"
	"infogram/internal/telemetry"
)

// Mode selects how a read interacts with the cache; it maps one-to-one to
// the xRSL response tag values.
type Mode int

// Response modes (paper §6.5).
const (
	// Cached returns the cached value if it is valid, otherwise updates
	// the cache first. This is the default.
	Cached Mode = iota
	// Immediate executes the provider now regardless of TTL (still
	// honouring the inter-execution delay) and updates the cache.
	Immediate
	// Last returns whatever is stored without updating, failing if the
	// entry has never been filled.
	Last
)

// String renders the mode as the response tag value.
func (m Mode) String() string {
	switch m {
	case Cached:
		return "cached"
	case Immediate:
		return "immediate"
	case Last:
		return "last"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode converts a response tag value to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "cached", "":
		return Cached, nil
	case "immediate":
		return Immediate, nil
	case "last":
		return Last, nil
	}
	return Cached, fmt.Errorf("cache: unknown response mode %q", s)
}

// UpdateFunc produces a fresh value; it is the cache-facing face of the
// paper's blocking updateState method.
type UpdateFunc func(ctx context.Context) (any, error)

// Errors returned by cache reads.
var (
	// ErrNeverFetched is returned when a non-updating read (Query, Last)
	// finds an entry that has never been filled — the paper's
	// "otherwise, it throws an exception" for querystate.
	ErrNeverFetched = errors.New("cache: value never fetched")
	// ErrStale is returned by Query when the TTL has expired.
	ErrStale = errors.New("cache: value expired")
)

// Options configures an Entry.
type Options struct {
	// TTL is the lifetime of a cached value. Zero means "execute the
	// keyword every time it is requested" (Table 1's TTL 0 row): the
	// cache never reports a value as fresh.
	TTL time.Duration
	// Delay is the minimum interval between consecutive provider
	// executions; requests arriving sooner are served from the cache even
	// in Immediate mode (paper §6.2).
	Delay time.Duration
	// Degrade optionally attaches a degradation function; required for
	// quality-threshold reads.
	Degrade quality.Degradation
	// Drift optionally measures the relative change between the previous
	// and new value; when Degrade is self-correcting the measurement is
	// fed back as an observation.
	Drift func(old, new any) float64
	// Series optionally records every provider execution's duration,
	// successful or failed, for the performance tag. Nil is a no-op.
	Series *telemetry.Histogram
	// Telemetry optionally attaches service-wide cache counters; see
	// SetTelemetry. Nil metrics inside are no-ops.
	Telemetry Counters
	// Clock defaults to the system clock.
	Clock clock.Clock
}

// Counters is the telemetry an entry feeds: reads served from cache,
// provider executions, and evictions (a stored value superseded by a fresh
// execution). All fields are optional.
type Counters struct {
	Hits      *telemetry.Counter
	Misses    *telemetry.Counter
	Evictions *telemetry.Counter
}

// Entry caches the result of one key information provider.
type Entry struct {
	opts Options
	fn   UpdateFunc

	mu        sync.Mutex
	value     any
	fetchedAt time.Time
	hasValue  bool
	lastExec  time.Time     // start of the most recent actual execution
	inflight  chan struct{} // non-nil while an update is running
	lastErr   error

	execs     atomic.Int64 // provider executions performed
	hits      atomic.Int64 // reads served from cache
	coalesced atomic.Int64 // reads that waited on another goroutine's update
}

// NewEntry builds an entry around fn.
func NewEntry(opts Options, fn UpdateFunc) *Entry {
	if opts.Clock == nil {
		opts.Clock = clock.System
	}
	return &Entry{opts: opts, fn: fn}
}

// Result is a cache read outcome.
type Result struct {
	Value     any
	FetchedAt time.Time
	Age       time.Duration
	// Quality is the degradation score at read time; 100 when no
	// degradation function is configured.
	Quality quality.Score
	// FromCache is true when the value was served without executing the
	// provider in this call.
	FromCache bool
	// Stale is true when the value was served past its TTL — the
	// degraded-collection fallback that prefers marked stale data over no
	// data during a provider outage. Stale results are never cached
	// downstream.
	Stale bool
}

// Stats is an entry's counters, used by the E5 experiment to count
// provider executions saved by caching.
type Stats struct {
	Execs     int64
	Hits      int64
	Coalesced int64
}

// Stats returns the entry's counters.
func (e *Entry) Stats() Stats {
	return Stats{Execs: e.execs.Load(), Hits: e.hits.Load(), Coalesced: e.coalesced.Load()}
}

// TTL returns the configured time-to-live.
func (e *Entry) TTL() time.Duration { return e.opts.TTL }

// SetDelay changes the minimum inter-execution delay (the paper's
// setDelay).
func (e *Entry) SetDelay(d time.Duration) {
	e.mu.Lock()
	e.opts.Delay = d
	e.mu.Unlock()
}

// SetTelemetry attaches (or replaces) the entry's cache counters; used to
// retrofit telemetry onto providers registered before the service's
// registry existed.
func (e *Entry) SetTelemetry(c Counters) {
	e.mu.Lock()
	e.opts.Telemetry = c
	e.mu.Unlock()
}

// hitLocked counts one cache-served read. Caller holds e.mu.
func (e *Entry) hitLocked() {
	e.hits.Add(1)
	e.opts.Telemetry.Hits.Inc()
}

// qualityAt computes the degradation score for a value of the given age.
func (e *Entry) qualityAt(age time.Duration) quality.Score {
	if e.opts.Degrade == nil {
		return 100
	}
	return e.opts.Degrade.Quality(age)
}

// freshLocked reports whether the cached value satisfies TTL and the
// quality threshold. Caller holds e.mu.
func (e *Entry) freshLocked(now time.Time, threshold quality.Score) bool {
	if !e.hasValue {
		return false
	}
	age := now.Sub(e.fetchedAt)
	if e.opts.TTL <= 0 || age > e.opts.TTL {
		return false
	}
	if threshold > 0 && e.qualityAt(age) < threshold {
		return false
	}
	return true
}

// withinDelayLocked reports whether a new execution is suppressed by the
// inter-execution delay. Caller holds e.mu.
func (e *Entry) withinDelayLocked(now time.Time) bool {
	return e.opts.Delay > 0 && e.hasValue && now.Sub(e.lastExec) < e.opts.Delay
}

// resultLocked snapshots the cached value. Caller holds e.mu.
func (e *Entry) resultLocked(now time.Time, fromCache bool) Result {
	age := now.Sub(e.fetchedAt)
	return Result{
		Value:     e.value,
		FetchedAt: e.fetchedAt,
		Age:       age,
		Quality:   e.qualityAt(age),
		FromCache: fromCache,
	}
}

// Query is the paper's non-blocking querystate: it returns the cached
// value only when it has been fetched before and the TTL has not expired;
// otherwise it returns ErrNeverFetched or ErrStale.
func (e *Entry) Query() (Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.opts.Clock.Now()
	if !e.hasValue {
		return Result{}, ErrNeverFetched
	}
	if !e.freshLocked(now, 0) {
		return e.resultLocked(now, true), ErrStale
	}
	e.hitLocked()
	return e.resultLocked(now, true), nil
}

// StaleResult returns whatever value is stored, regardless of TTL, with
// Result.Stale set when the TTL has lapsed. It never executes the
// provider: this is the outage fallback CollectDegraded reaches for when
// an execution has just failed, so "serve the last known value, marked" is
// the entire point. The second result is false when nothing was ever
// fetched.
func (e *Entry) StaleResult() (Result, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.hasValue {
		return Result{}, false
	}
	now := e.opts.Clock.Now()
	e.hitLocked()
	r := e.resultLocked(now, true)
	r.Stale = !e.freshLocked(now, 0)
	return r, true
}

// Update is the paper's blocking updateState: it refreshes the value
// (subject to the inter-execution delay and single-flight coalescing) and
// returns it.
func (e *Entry) Update(ctx context.Context) (Result, error) {
	return e.Get(ctx, Immediate, 0)
}

// Get reads the entry under the given response mode and quality threshold
// (0 disables the threshold). It is the entry point used by the InfoGram
// request dispatcher. A traced request records the lookup as a
// "cache.lookup" span annotated with whether the answer came from cache.
func (e *Entry) Get(ctx context.Context, mode Mode, threshold quality.Score) (Result, error) {
	ctx, sp := telemetry.StartSpan(ctx, "cache.lookup")
	r, err := e.get(ctx, mode, threshold)
	if sp != nil {
		if err != nil {
			sp.Fail(err.Error())
		} else if r.FromCache {
			sp.SetAttr("outcome", "hit")
		} else {
			sp.SetAttr("outcome", "miss")
		}
		sp.End()
	}
	return r, err
}

func (e *Entry) get(ctx context.Context, mode Mode, threshold quality.Score) (Result, error) {
	for {
		e.mu.Lock()
		now := e.opts.Clock.Now()
		switch mode {
		case Last:
			if !e.hasValue {
				e.mu.Unlock()
				return Result{}, ErrNeverFetched
			}
			e.hitLocked()
			r := e.resultLocked(now, true)
			e.mu.Unlock()
			return r, nil
		case Cached:
			if e.freshLocked(now, threshold) {
				e.hitLocked()
				r := e.resultLocked(now, true)
				e.mu.Unlock()
				return r, nil
			}
		case Immediate:
			// fall through to update
		default:
			e.mu.Unlock()
			return Result{}, fmt.Errorf("cache: invalid mode %v", mode)
		}

		// An update is needed. Delay suppression serves the stored value
		// instead of executing again.
		if e.withinDelayLocked(now) {
			e.hitLocked()
			r := e.resultLocked(now, true)
			e.mu.Unlock()
			return r, nil
		}

		if e.inflight != nil {
			// Another goroutine is updating; wait for it, then re-read.
			ch := e.inflight
			e.mu.Unlock()
			e.coalesced.Add(1)
			select {
			case <-ch:
				// After a coalesced wait, serve whatever the update
				// produced rather than looping into another execution.
				e.mu.Lock()
				if e.lastErr != nil {
					err := e.lastErr
					e.mu.Unlock()
					return Result{}, err
				}
				if e.hasValue {
					r := e.resultLocked(e.opts.Clock.Now(), true)
					e.mu.Unlock()
					return r, nil
				}
				e.mu.Unlock()
				continue
			case <-ctx.Done():
				return Result{}, ctx.Err()
			}
		}

		// We are the updater.
		ch := make(chan struct{})
		e.inflight = ch
		e.lastExec = now
		tel := e.opts.Telemetry
		e.mu.Unlock()
		tel.Misses.Inc()

		start := e.opts.Clock.Now()
		v, err := e.fn(ctx)
		e.opts.Series.Observe(e.opts.Clock.Since(start))
		e.execs.Add(1)

		e.mu.Lock()
		e.inflight = nil
		e.lastErr = err
		if err == nil {
			if e.hasValue {
				tel.Evictions.Inc()
			}
			e.observeDriftLocked(v)
			e.value = v
			e.fetchedAt = e.opts.Clock.Now()
			e.hasValue = true
		}
		close(ch)
		if err != nil {
			e.mu.Unlock()
			return Result{}, fmt.Errorf("cache: update: %w", err)
		}
		r := e.resultLocked(e.opts.Clock.Now(), false)
		e.mu.Unlock()
		return r, nil
	}
}

// observeDriftLocked feeds value drift into a self-correcting degradation
// function. Caller holds e.mu.
func (e *Entry) observeDriftLocked(newValue any) {
	if e.opts.Drift == nil || !e.hasValue {
		return
	}
	sc, ok := e.opts.Degrade.(*quality.SelfCorrecting)
	if !ok {
		return
	}
	age := e.opts.Clock.Now().Sub(e.fetchedAt)
	sc.ObserveDrift(e.opts.Drift(e.value, newValue), age)
}

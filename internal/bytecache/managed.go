package bytecache

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"infogram/internal/telemetry"
)

// Managed is the one managed-cache stack every rendered-response cache in
// the system instantiates (the gatekeeper's response cache, the GRIS and
// the GIIS): a Cache plus everything those caches would otherwise each
// re-wire around it.
//
//   - Key layout gen(8) ‖ body. The owner's invalidation counter is stamped
//     little-endian into key bytes [0,8) (AppendGen), so any churn makes
//     every older entry unreachable at once; orphans age out by TTL or LRU.
//   - One negative-TTL rule (NegTTL): TTL/4, floored at one second so a
//     small TTL cannot make empty or failed answers uncacheable, capped at
//     the TTL itself.
//   - Refresh-ahead. Store remembers, per key, the request whose answer was
//     stored (bounded at maxTracked); a scanner queues entries that are both
//     popular and past RefreshAhead of their lifetime onto a bounded queue,
//     and a fixed worker pool re-runs the owner's miss path through Refill.
//     With RefreshAhead zero nothing is tracked and no goroutine runs.
//   - Snapshot wiring (Persister): the generation re-stamp and the digest
//     trust gate.
//
// The owner supplies what is genuinely its own: Generation, Digest, the key
// body it appends after the stamp, the per-entry TTL, and Refill. Get, Set,
// Info and Stats are the embedded Cache's — the hit path is a direct call
// into (*Cache).Get.
type Managed struct {
	*Cache

	gen    func() uint64
	digest func() uint64
	negTTL time.Duration

	// Refresh-ahead state; queue is nil when RefreshAhead is zero, and
	// everything below is then unused.
	frac   float64
	fill   time.Duration
	refill func(ctx context.Context, req any) (bool, error)

	mu      sync.Mutex
	tracked map[uint64]*trackedEntry

	queue  chan *trackedEntry
	ctx    context.Context // parent of every refill; cancelled by Close
	cancel context.CancelFunc
	pool   sync.WaitGroup // the scanner and the workers

	refreshed *telemetry.Counter
	failed    *telemetry.Counter
	skipped   *telemetry.Counter
	trackedG  *telemetry.Gauge
}

// ManagedOptions configures a Managed cache.
type ManagedOptions struct {
	// Options sizes the byte cache; DefaultTTL is the lifetime cap every
	// derived duration (negative TTL, scan period) is computed from.
	Options
	// Generation is the owner's invalidation counter, stamped into every key.
	Generation func() uint64
	// Digest fingerprints whatever Generation ranges over; a snapshot taken
	// under a different digest is refused.
	Digest func() uint64
	// RefreshAhead in (0,1) arms the refresh pool (clamped to [0.1, 0.95]):
	// hot entries are re-filled once this fraction of their lifetime has
	// elapsed. Zero: no tracking, no goroutines.
	RefreshAhead float64
	// RefillTimeout bounds one background refill; 0 selects 30 s.
	RefillTimeout time.Duration
	// Refill re-runs the owner's ordinary miss path for a tracked request in
	// cache.Immediate mode and reports whether a fresh rendering was stored.
	// Going through the miss path keeps the §6.2 guarantee: each provider's
	// single-flight Entry still coalesces the execution and still enforces
	// the minimum inter-execution delay.
	Refill func(ctx context.Context, req any) (stored bool, err error)
	// Telemetry, when set, receives the byte cache's series and — with the
	// pool armed — Family_{total,errors_total,skipped_total,tracked} carrying
	// Labels. Subject is spliced into their help texts ("directory " for the
	// MDS tiers).
	Telemetry *telemetry.Registry
	Family    string
	Subject   string
	Labels    []telemetry.Label
}

const (
	// maxTracked bounds the refresh candidate table. When full, new stores
	// are simply not tracked: the scanner prunes entries that expired or
	// were evicted, and hot keys — re-stored on every refill — re-enter the
	// moment space frees up. An approximate top-K, which is all
	// refresh-ahead needs.
	maxTracked = 4096
	// refreshHotHits is how many reads an entry must have absorbed since its
	// last fill to be worth refreshing — one-hit wonders expire.
	refreshHotHits = 2
	// refreshQueue bounds the scanner→worker queue; a full queue skips the
	// entry until the next scan (the global refill rate limit).
	refreshQueue = 64
	// refreshWorkers is the number of concurrent background refills.
	refreshWorkers = 2
	// defaultRefillTimeout bounds one refill when the owner has no deadline
	// of its own.
	defaultRefillTimeout = 30 * time.Second
)

// trackedEntry is one refresh candidate: the owner's cloned request and the
// key its rendering lives under. Immutable after creation except inflight.
type trackedEntry struct {
	key []byte
	req any
	// inflight is set while the entry is queued or being refilled, so one
	// entry is never queued twice.
	inflight atomic.Bool
}

// NewManaged builds the cache and, when RefreshAhead is set, starts the
// scanner and workers; Close stops them.
func NewManaged(opts ManagedOptions) *Managed {
	m := &Managed{
		Cache:  New(opts.Options),
		gen:    opts.Generation,
		digest: opts.Digest,
		refill: opts.Refill,
	}
	m.SetTelemetry(opts.Telemetry)

	ttl := opts.DefaultTTL
	m.negTTL = min(max(ttl/4, time.Second), ttl)
	if opts.RefreshAhead <= 0 {
		return m
	}

	m.frac = min(max(opts.RefreshAhead, 0.1), 0.95)
	m.fill = opts.RefillTimeout
	if m.fill <= 0 {
		m.fill = defaultRefillTimeout
	}
	m.tracked = make(map[uint64]*trackedEntry)
	m.queue = make(chan *trackedEntry, refreshQueue)
	m.ctx, m.cancel = context.WithCancel(context.Background())
	reg, s := opts.Telemetry, opts.Subject // a nil registry hands out nil, no-op instruments
	m.refreshed = reg.Counter(opts.Family+"_total",
		"hot "+s+"cache entries proactively refreshed before TTL expiry", opts.Labels...)
	m.failed = reg.Counter(opts.Family+"_errors_total",
		s+"refresh-ahead fills that failed or came back degraded", opts.Labels...)
	m.skipped = reg.Counter(opts.Family+"_skipped_total",
		s+"refresh-ahead candidates deferred because the worker queue was full", opts.Labels...)
	m.trackedG = reg.Gauge(opts.Family+"_tracked",
		s+"entries currently tracked as refresh-ahead candidates", opts.Labels...)
	// Scan often enough that an entry is seen a few times inside its
	// refresh window (the last 1-frac of its life), bounded to stay cheap
	// for long TTLs and sane for very short ones.
	every := time.Duration(float64(ttl) * (1 - m.frac) / 4)
	every = min(max(every, 10*time.Millisecond), 5*time.Second)
	m.pool.Add(1 + refreshWorkers)
	for i := 0; i < refreshWorkers; i++ {
		go m.worker()
	}
	go func() {
		defer m.pool.Done()
		// The scanner is the only sender, so it closes the queue.
		defer close(m.queue)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.scan()
			case <-m.ctx.Done():
				return
			}
		}
	}()
	return m
}

// AppendGen appends the owner's current generation, little-endian: the
// first eight bytes of every key. The caller appends its key body after it.
func (m *Managed) AppendGen(buf []byte) []byte {
	return binary.LittleEndian.AppendUint64(buf, m.gen())
}

// NegTTL is the lifetime of negative entries — failed lookups and answers
// that matched nothing — which must recover quickly once data appears.
func (m *Managed) NegTTL() time.Duration { return m.negTTL }

// Store caches val under key (which must start with AppendGen's stamp) and,
// when the refresh pool is armed and req is non-nil, remembers the request
// for refresh-ahead. req clones the caller's request and is called only
// when the key is newly tracked; the key is copied then too, so the caller
// may build it in pooled scratch.
func (m *Managed) Store(key, val []byte, ttl time.Duration, req func() any) {
	m.Set(key, val, ttl)
	if m.queue == nil || req == nil {
		return
	}
	h := hashBytes(key)
	m.mu.Lock()
	_, known := m.tracked[h]
	full := len(m.tracked) >= maxTracked
	m.mu.Unlock()
	if known || full {
		return
	}
	// Cloned outside the lock: req is the caller's code.
	t := &trackedEntry{key: append([]byte(nil), key...), req: req()}
	m.mu.Lock()
	if _, known := m.tracked[h]; !known && len(m.tracked) < maxTracked {
		m.tracked[h] = t
	}
	m.mu.Unlock()
}

// Tracked reports how many requests are remembered as refresh candidates.
func (m *Managed) Tracked() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.tracked)
}

// scan walks the tracked candidates once, pruning dead ones and queueing
// the hot-and-aging ones.
func (m *Managed) scan() {
	now := m.clk.Now().UnixNano()
	gen := m.gen()
	m.mu.Lock()
	cands := make([]*trackedEntry, 0, len(m.tracked))
	for _, t := range m.tracked {
		cands = append(cands, t)
	}
	m.mu.Unlock()
	m.trackedG.Set(int64(len(cands)))
	for _, t := range cands {
		// A generation change orphaned the key: the entry is unreachable and
		// a refill would resurrect data under a dead key.
		if len(t.key) < 8 || binary.LittleEndian.Uint64(t.key) != gen {
			m.untrack(t)
			continue
		}
		info, ok := m.Info(t.key)
		if !ok {
			// Expired or evicted; the next request-path miss re-tracks it.
			m.untrack(t)
			continue
		}
		if info.Hits < refreshHotHits || info.Expire <= info.Stored {
			continue
		}
		if now-info.Stored < int64(m.frac*float64(info.Expire-info.Stored)) {
			continue
		}
		if !t.inflight.CompareAndSwap(false, true) {
			continue // already queued or refilling
		}
		select {
		case m.queue <- t:
		default:
			t.inflight.Store(false)
			m.skipped.Inc()
		}
	}
}

// untrack drops a candidate whose cache entry is gone or orphaned.
func (m *Managed) untrack(t *trackedEntry) {
	h := hashBytes(t.key)
	m.mu.Lock()
	if m.tracked[h] == t {
		delete(m.tracked, h)
	}
	m.mu.Unlock()
}

// worker drains the queue, re-running fills. A refill that fails or stores
// nothing (a degraded answer) leaves the old blob serving until its TTL.
func (m *Managed) worker() {
	defer m.pool.Done()
	for t := range m.queue {
		ctx, cancel := context.WithTimeout(m.ctx, m.fill)
		stored, err := m.refill(ctx, t.req)
		cancel()
		if err != nil || !stored {
			m.failed.Inc()
		} else {
			m.refreshed.Inc()
		}
		t.inflight.Store(false)
	}
}

// Close cancels refills in flight and returns once the scanner and the
// workers have exited; the cache itself stays usable. Idempotent and
// nil-safe; a cache without refresh-ahead has nothing to stop.
func (m *Managed) Close() {
	if m == nil || m.queue == nil {
		return
	}
	m.cancel()
	m.pool.Wait()
}

// Persister wires the snapshot lifecycle for this cache: snapshots carry
// the owner's generation and digest, restore refuses a snapshot taken under
// another digest and re-stamps every key from the snapshot's generation to
// the current one (keys of any other generation are orphans and dropped).
// Returns nil for a nil cache, which every Persister method tolerates.
func (m *Managed) Persister(path, name string, interval time.Duration, compress bool) *Persister {
	if m == nil {
		return nil
	}
	return NewPersister(m.Cache, PersistOptions{
		Path:     path,
		Interval: interval,
		Name:     name,
		Compress: compress,
		Meta: func() SnapshotMeta {
			return SnapshotMeta{Generation: m.gen(), Digest: m.digest()}
		},
		MapKey: func(_, cur SnapshotMeta) func([]byte, SnapshotMeta) ([]byte, bool) {
			return GenKeyMapper(0, cur.Generation)
		},
		Clock: m.clk,
	})
}

// scratch pools the buffers callers assemble keys and values in, so the
// hit path builds its key without a heap allocation.
var scratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 256)
	return &b
}}

// GetScratch returns a pooled buffer; use (*p)[:0] and hand the grown slice
// back through PutScratch.
func GetScratch() *[]byte { return scratch.Get().(*[]byte) }

// PutScratch returns p to the pool, keeping used's (possibly grown) backing
// array. Get and Set copy what they keep, so this is safe right after them.
func PutScratch(p *[]byte, used []byte) {
	*p = used[:0]
	scratch.Put(p)
}

// Package bytecache is a sharded, arena-backed byte cache built for the
// information read path: millions of small rendered blobs (LDIF/DSML
// response bodies, filter projections) looked up by opaque byte keys at
// request rate. The paper's §5.1 cache keeps one value per information
// provider, which is the right shape for a handful of keywords and the
// wrong shape for a GRIS serving millions of distinct filtered results —
// the MDS performance studies show query throughput is decided by whether
// the query path answers from cache without re-evaluating and
// re-rendering.
//
// Design (modeled on GigaCache's bucket/arena split):
//
//   - The key space is split across power-of-two shards by a 64-bit FNV-1a
//     hash; each shard is guarded by one mutex, so concurrent readers of
//     different keys rarely contend.
//   - Each shard stores key and value bytes contiguously in an append-only
//     arena ([]byte). The index is a compact map from key hash to a fixed
//     slot {offset, key length, value length, expiry, LRU tick}; entries
//     carry no per-entry heap allocation beyond their arena bytes.
//   - Get returns a slice aliasing the arena. Arenas are never mutated in
//     place: overwrites and deletes only mark bytes dead, and compaction
//     copies live entries into a fresh arena and swaps it. A blob returned
//     to a reader therefore stays valid (the old arena is garbage-collected
//     when the last reader drops it), which is what lets the service write
//     a cache hit to the wire with zero copies.
//   - Eviction is per-shard and two-stage: expired entries go first, then
//     approximate LRU (sampling the index, evicting the stalest of the
//     sample) until the shard is back under its byte budget.
//   - Compaction is incremental: when a shard's dead bytes cross
//     CompactFraction of its arena (and a small fixed floor), the
//     inserting goroutine rewrites just that shard. No global
//     stop-the-world pass exists.
//
// The hit path — hash, one mutex, one map probe, key compare, tick bump —
// performs zero heap allocations (pinned by testing.AllocsPerRun in the
// package tests).
package bytecache

import (
	"bytes"
	"sync"
	"time"

	"infogram/internal/clock"
	"infogram/internal/telemetry"
)

// Default configuration values.
const (
	// DefaultShards is the shard count when Options.Shards is zero. High
	// enough that a pool of request workers rarely collides on one mutex,
	// low enough that per-shard telemetry stays readable.
	DefaultShards = 64
	// DefaultMaxBytes is the total byte budget when Options.MaxBytes is
	// zero: 256 MiB across all shards.
	DefaultMaxBytes = 256 << 20
	// DefaultCompactFraction triggers a shard compaction when dead bytes
	// exceed this fraction of the shard's arena.
	DefaultCompactFraction = 0.25
	// evictSample is how many index entries an LRU eviction round
	// examines; the stalest of the sample is evicted (approximate LRU, the
	// Redis strategy — exact LRU would cost a list node per entry).
	evictSample = 5
)

// Options configures a Cache.
type Options struct {
	// Shards is the shard count, rounded up to a power of two.
	Shards int
	// MaxBytes is the total live-byte budget, split evenly across shards.
	MaxBytes int64
	// DefaultTTL applies when Set is called with ttl zero. A DefaultTTL of
	// zero makes such entries live until evicted.
	DefaultTTL time.Duration
	// CompactFraction is the dead-bytes/arena-bytes ratio above which a
	// shard's arena is rewritten. Zero selects DefaultCompactFraction.
	CompactFraction float64
	// Clock defaults to the system clock.
	Clock clock.Clock
}

// slot is one index entry: where in the arena the key+value bytes live,
// when the entry expires, and when it was last touched. Slots are stored
// by value in the index map, so an entry costs no heap allocation beyond
// its arena bytes.
type slot struct {
	off    int64 // arena offset of the key bytes (value follows)
	klen   uint32
	vlen   uint32
	expire int64  // unix nanos; 0 = no expiry
	stored int64  // unix nanos when the entry was written
	tick   uint64 // shard LRU clock at last access
}

func (s slot) size() int64 { return int64(s.klen) + int64(s.vlen) }

// shardTel is the pre-resolved per-shard telemetry, bound once in
// SetTelemetry so the mutating paths never look metrics up by name.
type shardTel struct {
	entries     *telemetry.Gauge
	liveBytes   *telemetry.Gauge
	evictions   *telemetry.Counter
	compactions *telemetry.Counter
}

// shard is one lock domain: an index over an append-only arena.
type shard struct {
	mu    sync.Mutex
	index map[uint64]slot
	arena []byte
	live  int64  // bytes referenced by the index
	dead  int64  // bytes in the arena no longer referenced
	tick  uint64 // LRU clock, bumped on every access

	// stats, guarded by mu
	hits        int64
	misses      int64
	sets        int64
	evictedTTL  int64
	evictedLRU  int64
	compactions int64

	tel shardTel
}

// Cache is the sharded byte cache. All methods are safe for concurrent
// use.
type Cache struct {
	shards    []shard
	mask      uint64
	maxShard  int64 // per-shard live-byte budget
	defTTL    time.Duration
	compactAt float64
	clk       clock.Clock

	// service-wide telemetry; every field is nil-safe, so an untelemetered
	// cache pays only dead branches
	hitsC       *telemetry.Counter
	missesC     *telemetry.Counter
	setsC       *telemetry.Counter
	evictTTLC   *telemetry.Counter
	evictLRUC   *telemetry.Counter
	compactC    *telemetry.Counter
	compactHist *telemetry.Histogram
	residentG   *telemetry.Gauge
	deadG       *telemetry.Gauge
	entriesG    *telemetry.Gauge
}

// New builds a cache.
func New(opts Options) *Cache {
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round up to a power of two so shard selection is a mask.
	p := 1
	for p < n {
		p <<= 1
	}
	maxBytes := opts.MaxBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	frac := opts.CompactFraction
	if frac <= 0 || frac >= 1 {
		frac = DefaultCompactFraction
	}
	clk := opts.Clock
	if clk == nil {
		clk = clock.System
	}
	c := &Cache{
		shards:    make([]shard, p),
		mask:      uint64(p - 1),
		maxShard:  maxBytes / int64(p),
		defTTL:    opts.DefaultTTL,
		compactAt: frac,
		clk:       clk,
	}
	if c.maxShard < 1 {
		c.maxShard = 1
	}
	for i := range c.shards {
		c.shards[i].index = make(map[uint64]slot)
	}
	return c
}

// SetTelemetry binds the cache's counters, gauges, and histograms into
// reg: aggregate hit/miss/set/eviction/compaction counters, resident and
// dead byte gauges, a compaction-duration histogram, and per-shard
// occupancy/eviction/compaction series. Call once, before serving.
// Occupancy gauges are maintained incrementally on mutation paths; the
// hit path only increments counters, so it stays allocation-free.
func (c *Cache) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.hitsC = reg.Counter("infogram_bytecache_hits_total", "byte-cache reads answered from a stored blob")
	c.missesC = reg.Counter("infogram_bytecache_misses_total", "byte-cache reads that found no fresh blob")
	c.setsC = reg.Counter("infogram_bytecache_sets_total", "byte-cache stores")
	c.evictTTLC = reg.Counter("infogram_bytecache_evictions_total", "byte-cache entries dropped", telemetry.Label{Key: "reason", Value: "ttl"})
	c.evictLRUC = reg.Counter("infogram_bytecache_evictions_total", "byte-cache entries dropped", telemetry.Label{Key: "reason", Value: "lru"})
	c.compactC = reg.Counter("infogram_bytecache_compactions_total", "shard arena rewrites reclaiming dead bytes")
	c.compactHist = reg.Histogram("infogram_bytecache_compaction_duration_seconds", "wall-clock duration of one shard compaction")
	c.residentG = reg.Gauge("infogram_bytecache_resident_bytes", "live bytes referenced by the byte-cache index")
	c.deadG = reg.Gauge("infogram_bytecache_dead_bytes", "arena bytes awaiting compaction")
	c.entriesG = reg.Gauge("infogram_bytecache_entries", "entries resident in the byte cache")
	for i := range c.shards {
		sh := telemetry.Label{Key: "shard", Value: shardLabel(i)}
		c.shards[i].tel = shardTel{
			entries:     reg.Gauge("infogram_bytecache_shard_entries", "entries resident in one byte-cache shard", sh),
			liveBytes:   reg.Gauge("infogram_bytecache_shard_live_bytes", "live bytes in one byte-cache shard", sh),
			evictions:   reg.Counter("infogram_bytecache_shard_evictions_total", "entries evicted from one byte-cache shard", sh),
			compactions: reg.Counter("infogram_bytecache_shard_compactions_total", "arena rewrites of one byte-cache shard", sh),
		}
	}
}

// shardLabel renders a shard index as a fixed-width label value so series
// sort numerically.
func shardLabel(i int) string {
	const digits = "0123456789"
	return string([]byte{digits[(i/100)%10], digits[(i/10)%10], digits[i%10]})
}

// hashBytes is 64-bit FNV-1a: allocation-free, good avalanche for the
// short structured keys the information path builds.
func hashBytes(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// Get looks key up and returns the stored value, aliasing the shard
// arena. The returned slice must be treated as read-only; its capacity
// ends with the value, so appending to it copies. It remains valid after
// eviction or compaction because arenas are never mutated in place. The second result reports whether a fresh entry was found.
func (c *Cache) Get(key []byte) ([]byte, bool) {
	h := hashBytes(key)
	s := &c.shards[h&c.mask]
	now := c.clk.Now().UnixNano()
	s.mu.Lock()
	sl, ok := s.index[h]
	if !ok {
		s.misses++
		s.mu.Unlock()
		c.missesC.Inc()
		return nil, false
	}
	if sl.expire > 0 && now > sl.expire {
		c.dropLocked(s, h, sl)
		s.evictedTTL++
		s.misses++
		s.publishLocked()
		s.mu.Unlock()
		c.evictTTLC.Inc()
		c.missesC.Inc()
		return nil, false
	}
	kb := s.arena[sl.off : sl.off+int64(sl.klen)]
	if !bytes.Equal(kb, key) {
		// 64-bit hash collision: the slot belongs to a different key.
		// Served as a miss — the caller refills and the colliding key is
		// overwritten (last-writer-wins), never answered wrongly.
		s.misses++
		s.mu.Unlock()
		c.missesC.Inc()
		return nil, false
	}
	s.tick++
	sl.tick = s.tick
	s.index[h] = sl
	// The three-index slice caps the value at its own bytes: a caller's
	// append copies instead of writing into the next entry or the tail
	// the next Set fills.
	end := sl.off + sl.size()
	v := s.arena[sl.off+int64(sl.klen) : end : end]
	s.hits++
	s.mu.Unlock()
	c.hitsC.Inc()
	return v, true
}

// Set stores value under key with the given ttl (zero selects the
// cache's DefaultTTL; negative stores a non-expiring entry). The key and
// value bytes are copied into the shard arena, so the caller keeps
// ownership of both. Values larger than a shard's whole budget are not
// stored (and evict a previous entry under the same key, so staleness
// never hides behind an oversized update).
func (c *Cache) Set(key, value []byte, ttl time.Duration) {
	if ttl == 0 {
		ttl = c.defTTL
	}
	now := c.clk.Now()
	var expire int64
	if ttl > 0 {
		expire = now.Add(ttl).UnixNano()
	}
	c.put(key, value, now.UnixNano(), expire)
}

// put is the shared store path behind Set and snapshot restore: stored and
// expire are absolute timestamps (expire 0 = no expiry).
func (c *Cache) put(key, value []byte, stored, expire int64) {
	h := hashBytes(key)
	s := &c.shards[h&c.mask]
	size := int64(len(key)) + int64(len(value))

	s.mu.Lock()
	if old, ok := s.index[h]; ok {
		// Overwrite (same key or 64-bit collision): the old bytes die but
		// the index entry survives until replaced below.
		s.live -= old.size()
		s.dead += old.size()
		c.residentG.Add(-old.size())
		c.deadG.Add(old.size())
		if size > c.maxShard {
			delete(s.index, h)
			c.entriesG.Add(-1)
		}
	}
	if size <= c.maxShard {
		c.evictForLocked(s, size)
		isNew := true
		if _, ok := s.index[h]; ok {
			isNew = false
		}
		off := int64(len(s.arena))
		s.arena = append(s.arena, key...)
		s.arena = append(s.arena, value...)
		s.tick++
		s.index[h] = slot{
			off:    off,
			klen:   uint32(len(key)),
			vlen:   uint32(len(value)),
			expire: expire,
			stored: stored,
			tick:   s.tick,
		}
		s.live += size
		s.sets++
		c.residentG.Add(size)
		if isNew {
			c.entriesG.Add(1)
		}
	}
	c.maybeCompactLocked(s, size)
	s.publishLocked()
	s.mu.Unlock()
	c.setsC.Inc()
}

// Delete removes key if present.
func (c *Cache) Delete(key []byte) {
	h := hashBytes(key)
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	if sl, ok := s.index[h]; ok {
		c.dropLocked(s, h, sl)
		c.maybeCompactLocked(s, 0)
		s.publishLocked()
	}
	s.mu.Unlock()
}

// dropLocked removes an index entry and accounts its bytes dead. Caller
// holds s.mu.
func (c *Cache) dropLocked(s *shard, h uint64, sl slot) {
	delete(s.index, h)
	s.live -= sl.size()
	s.dead += sl.size()
	s.tel.evictions.Inc()
	c.residentG.Add(-sl.size())
	c.deadG.Add(sl.size())
	c.entriesG.Add(-1)
}

// evictForLocked frees room for an incoming entry of the given size:
// expired entries first, then approximate LRU (stalest of a small sample)
// until live+size fits the shard budget.
func (c *Cache) evictForLocked(s *shard, size int64) {
	if s.live+size <= c.maxShard {
		return
	}
	now := c.clk.Now().UnixNano()
	// Pass 1: expired entries anywhere in the shard.
	for h, sl := range s.index {
		if sl.expire > 0 && now > sl.expire {
			c.dropLocked(s, h, sl)
			s.evictedTTL++
			c.evictTTLC.Inc()
			if s.live+size <= c.maxShard {
				return
			}
		}
	}
	// Pass 2: approximate LRU. Map iteration starts at a random position,
	// so each round samples a different neighborhood.
	for s.live+size > c.maxShard && len(s.index) > 0 {
		var victim uint64
		var vslot slot
		oldest := uint64(0)
		n := 0
		for h, sl := range s.index {
			if n == 0 || sl.tick < oldest {
				victim, vslot, oldest = h, sl, sl.tick
			}
			n++
			if n >= evictSample {
				break
			}
		}
		c.dropLocked(s, victim, vslot)
		s.evictedLRU++
		c.evictLRUC.Inc()
	}
}

// minCompactDead is the dead-byte floor below which a shard is never
// compacted: without it a shard holding few live bytes would cross the
// fraction, and rewrite its arena, on nearly every overwrite.
const minCompactDead = 4 << 10

// maybeCompactLocked rewrites the shard arena when dead bytes reach both
// minCompactDead and the configured fraction of the arena: live entries
// are copied into a fresh arena in index order and the old arena is
// released to the garbage collector (readers holding blobs from it keep
// it alive until they drop them). After every store or delete a shard
// therefore holds fewer dead bytes than the larger of minCompactDead and
// f/(1−f) of its live bytes, for CompactFraction f: at the default, the
// larger of 4 KiB and a third of its live bytes. size is the size of the
// entry just stored, 0 after a delete.
func (c *Cache) maybeCompactLocked(s *shard, size int64) {
	arenaLen := int64(len(s.arena))
	if arenaLen == 0 || s.dead < minCompactDead {
		return
	}
	if float64(s.dead)/float64(arenaLen) < c.compactAt {
		return
	}
	start := c.clk.Now()
	// The fresh arena has room for the appends until the next compaction,
	// which comes when dead bytes reach the floor and compactAt of the
	// arena, plus the store that crosses them, taken to be the size of
	// this one: sized for the live bytes alone, the first Set after a
	// compaction would regrow and copy it.
	room := max(int64(float64(s.live)*c.compactAt/(1-c.compactAt)), minCompactDead) + size
	fresh := make([]byte, 0, s.live+room)
	for h, sl := range s.index {
		off := int64(len(fresh))
		fresh = append(fresh, s.arena[sl.off:sl.off+sl.size()]...)
		sl.off = off
		s.index[h] = sl
	}
	s.arena = fresh
	c.deadG.Add(-s.dead)
	s.dead = 0
	s.compactions++
	s.tel.compactions.Inc()
	c.compactC.Inc()
	c.compactHist.Observe(c.clk.Since(start))
}

// publishLocked refreshes the shard's occupancy gauges. Caller holds
// s.mu; two atomic stores, no allocation.
func (s *shard) publishLocked() {
	s.tel.entries.Set(int64(len(s.index)))
	s.tel.liveBytes.Set(s.live)
}

// Stats is a point-in-time aggregate of the cache's counters.
type Stats struct {
	Entries     int64
	LiveBytes   int64
	DeadBytes   int64
	ArenaBytes  int64
	Hits        int64
	Misses      int64
	Sets        int64
	EvictedTTL  int64
	EvictedLRU  int64
	Compactions int64
}

// HitRatio is hits / (hits + misses), 0 when no reads happened.
func (st Stats) HitRatio() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// add merges one shard's counters. Caller holds the shard's mutex.
func (st *Stats) add(s *shard) {
	st.Entries += int64(len(s.index))
	st.LiveBytes += s.live
	st.DeadBytes += s.dead
	st.ArenaBytes += int64(len(s.arena))
	st.Hits += s.hits
	st.Misses += s.misses
	st.Sets += s.sets
	st.EvictedTTL += s.evictedTTL
	st.EvictedLRU += s.evictedLRU
	st.Compactions += s.compactions
}

// Stats aggregates all shards.
func (c *Cache) Stats() Stats {
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.add(s)
		s.mu.Unlock()
	}
	return st
}

// ShardStats returns each shard's counters in shard order, for the
// occupancy views the selfmetrics provider and debug endpoints serve.
func (c *Cache) ShardStats() []Stats {
	out := make([]Stats, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out[i].add(s)
		s.mu.Unlock()
	}
	return out
}

// Shards returns the shard count.
func (c *Cache) Shards() int { return len(c.shards) }

// View is one live entry yielded by Range. Key and Value alias the shard
// arena: they are read-only but stay valid indefinitely (arenas are never
// mutated in place).
type View struct {
	Key    []byte
	Value  []byte
	Stored int64 // unix nanos when the entry was written
	Expire int64 // unix nanos; 0 = no expiry
}

// Range calls fn for every live, unexpired entry until fn returns false.
// Entries are gathered one shard at a time under that shard's lock, and fn
// runs after the lock is released, so fn may take as long as it likes (and
// may call back into the cache) without stalling readers. The snapshot it
// sees is consistent per shard, not across shards — exactly the guarantee
// a periodic snapshotter needs.
func (c *Cache) Range(fn func(View) bool) {
	var views []View
	now := c.clk.Now().UnixNano()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		views = views[:0]
		if cap(views) < len(s.index) {
			views = make([]View, 0, len(s.index))
		}
		for _, sl := range s.index {
			if sl.expire > 0 && now > sl.expire {
				continue
			}
			views = append(views, View{
				Key:    s.arena[sl.off : sl.off+int64(sl.klen) : sl.off+int64(sl.klen)],
				Value:  s.arena[sl.off+int64(sl.klen) : sl.off+sl.size() : sl.off+sl.size()],
				Stored: sl.stored,
				Expire: sl.expire,
			})
		}
		s.mu.Unlock()
		for _, v := range views {
			if !fn(v) {
				return
			}
		}
	}
}

// Clear drops every entry and releases every arena — the cold-start path
// taken when a snapshot restore finds corruption. Counters (hits, misses,
// sets) survive; occupancy gauges go to zero.
func (c *Cache) Clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		c.entriesG.Add(-int64(len(s.index)))
		c.residentG.Add(-s.live)
		c.deadG.Add(-s.dead)
		s.index = make(map[uint64]slot)
		s.arena = nil
		s.live = 0
		s.dead = 0
		s.publishLocked()
		s.mu.Unlock()
	}
}

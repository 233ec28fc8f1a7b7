package bytecache

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"infogram/internal/clock"
	"infogram/internal/telemetry"
)

func TestGetSetRoundTrip(t *testing.T) {
	c := New(Options{Shards: 4, MaxBytes: 1 << 20})
	if _, ok := c.Get([]byte("absent")); ok {
		t.Fatal("Get on empty cache reported a hit")
	}
	c.Set([]byte("k1"), []byte("value-one"), 0)
	c.Set([]byte("k2"), []byte("value-two"), 0)
	v, ok := c.Get([]byte("k1"))
	if !ok || string(v) != "value-one" {
		t.Fatalf("Get(k1) = %q, %v; want value-one, true", v, ok)
	}
	v, ok = c.Get([]byte("k2"))
	if !ok || string(v) != "value-two" {
		t.Fatalf("Get(k2) = %q, %v; want value-two, true", v, ok)
	}
	st := c.Stats()
	if st.Entries != 2 || st.Hits != 2 || st.Misses != 1 || st.Sets != 2 {
		t.Fatalf("stats = %+v; want 2 entries, 2 hits, 1 miss, 2 sets", st)
	}
	if got := st.HitRatio(); got < 0.66 || got > 0.67 {
		t.Fatalf("HitRatio() = %v; want 2/3", got)
	}
}

func TestOverwriteMarksOldBytesDead(t *testing.T) {
	c := New(Options{Shards: 1, MaxBytes: 1 << 20, CompactFraction: 0.99})
	c.Set([]byte("k"), []byte("first"), 0)
	c.Set([]byte("k"), []byte("second"), 0)
	v, ok := c.Get([]byte("k"))
	if !ok || string(v) != "second" {
		t.Fatalf("Get after overwrite = %q, %v; want second", v, ok)
	}
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("Entries = %d; want 1", st.Entries)
	}
	if st.DeadBytes != int64(len("k")+len("first")) {
		t.Fatalf("DeadBytes = %d; want %d", st.DeadBytes, len("k")+len("first"))
	}
}

func TestTTLExpiry(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	c := New(Options{Shards: 1, MaxBytes: 1 << 20, Clock: clk})
	c.Set([]byte("short"), []byte("v"), 50*time.Millisecond)
	c.Set([]byte("forever"), []byte("v"), -1)
	if _, ok := c.Get([]byte("short")); !ok {
		t.Fatal("fresh entry missing")
	}
	clk.Advance(100 * time.Millisecond)
	if _, ok := c.Get([]byte("short")); ok {
		t.Fatal("expired entry still served")
	}
	if _, ok := c.Get([]byte("forever")); !ok {
		t.Fatal("non-expiring entry dropped")
	}
	st := c.Stats()
	if st.EvictedTTL != 1 {
		t.Fatalf("EvictedTTL = %d; want 1", st.EvictedTTL)
	}
	if st.Entries != 1 {
		t.Fatalf("Entries = %d; want 1", st.Entries)
	}
}

func TestDefaultTTLApplied(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	c := New(Options{Shards: 1, MaxBytes: 1 << 20, DefaultTTL: time.Second, Clock: clk})
	c.Set([]byte("k"), []byte("v"), 0)
	clk.Advance(2 * time.Second)
	if _, ok := c.Get([]byte("k")); ok {
		t.Fatal("entry outlived DefaultTTL")
	}
}

func TestDelete(t *testing.T) {
	c := New(Options{Shards: 2, MaxBytes: 1 << 20})
	c.Set([]byte("k"), []byte("v"), 0)
	c.Delete([]byte("k"))
	if _, ok := c.Get([]byte("k")); ok {
		t.Fatal("deleted entry still present")
	}
	c.Delete([]byte("never-existed")) // must not panic
}

func TestLRUEvictionUnderBudget(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	// One shard with room for roughly 10 of the ~100-byte entries.
	c := New(Options{Shards: 1, MaxBytes: 1024, Clock: clk})
	val := bytes.Repeat([]byte("x"), 90)
	for i := 0; i < 50; i++ {
		c.Set(fmt.Appendf(nil, "key-%03d", i), val, -1)
	}
	st := c.Stats()
	if st.LiveBytes > 1024 {
		t.Fatalf("LiveBytes = %d exceeds budget 1024", st.LiveBytes)
	}
	if st.Entries == 0 {
		t.Fatal("eviction emptied the cache entirely")
	}
	if st.EvictedLRU == 0 {
		t.Fatal("no LRU evictions recorded despite overflow")
	}
	// The newest entry must have survived.
	if _, ok := c.Get([]byte("key-049")); !ok {
		t.Fatal("most recent entry was evicted")
	}
}

func TestEvictionPrefersExpired(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	c := New(Options{Shards: 1, MaxBytes: 1024, Clock: clk})
	val := bytes.Repeat([]byte("x"), 90)
	for i := 0; i < 5; i++ {
		c.Set(fmt.Appendf(nil, "exp-%d", i), val, 10*time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		c.Set(fmt.Appendf(nil, "live-%d", i), val, -1)
	}
	clk.Advance(time.Second) // all exp-* now stale
	// Push the shard over budget; expired entries must go first.
	c.Set([]byte("new"), val, -1)
	st := c.Stats()
	if st.EvictedTTL == 0 {
		t.Fatalf("expected TTL evictions before LRU; stats %+v", st)
	}
	for i := 0; i < 5; i++ {
		if _, ok := c.Get(fmt.Appendf(nil, "live-%d", i)); !ok {
			t.Fatalf("live-%d evicted while expired entries existed", i)
		}
	}
}

func TestCompactionReclaimsDeadBytes(t *testing.T) {
	c := New(Options{Shards: 1, MaxBytes: 1 << 20, CompactFraction: 0.5})
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 10; i++ {
		c.Set(fmt.Appendf(nil, "k%d", i), val, -1)
	}
	// Hold an alias into the current arena across the compaction.
	alias, ok := c.Get([]byte("k0"))
	if !ok {
		t.Fatal("k0 missing")
	}
	before := append([]byte(nil), alias...)
	// Keep overwriting until dead bytes cross 50% and trigger a rewrite.
	for i := 0; i < 100 && c.Stats().Compactions == 0; i++ {
		c.Set(fmt.Appendf(nil, "k%d", 1+i%9), val, -1)
	}
	st := c.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction despite repeated overwrites; stats %+v", st)
	}
	if st.DeadBytes != 0 {
		t.Fatalf("DeadBytes = %d after compaction; want 0", st.DeadBytes)
	}
	if st.ArenaBytes != st.LiveBytes {
		t.Fatalf("ArenaBytes = %d, LiveBytes = %d; want equal after compaction", st.ArenaBytes, st.LiveBytes)
	}
	// The alias taken before compaction still reads the original bytes.
	if !bytes.Equal(alias, before) {
		t.Fatal("pre-compaction alias mutated by compaction")
	}
	// And all entries are still readable post-rewrite.
	for i := 0; i < 10; i++ {
		v, ok := c.Get(fmt.Appendf(nil, "k%d", i))
		if !ok || !bytes.Equal(v, val) {
			t.Fatalf("k%d unreadable after compaction", i)
		}
	}
}

func TestOversizedValueRejectedAndInvalidatesOld(t *testing.T) {
	c := New(Options{Shards: 1, MaxBytes: 256})
	c.Set([]byte("k"), []byte("small"), 0)
	big := bytes.Repeat([]byte("b"), 1024)
	c.Set([]byte("k"), big, 0)
	if _, ok := c.Get([]byte("k")); ok {
		t.Fatal("oversized update left the stale small value readable")
	}
	st := c.Stats()
	if st.Entries != 0 {
		t.Fatalf("Entries = %d; want 0", st.Entries)
	}
}

// TestHashCollisionServedAsMiss plants two keys with the same 64-bit hash
// by seizing the index directly, then verifies the colliding reader gets a
// miss (never the other key's value).
func TestHashCollisionServedAsMiss(t *testing.T) {
	c := New(Options{Shards: 1, MaxBytes: 1 << 20})
	c.Set([]byte("stored"), []byte("stored-value"), 0)
	h := hashBytes([]byte("stored"))
	s := &c.shards[0]
	// Re-key the slot under the hash of a different key, simulating a
	// collision between "stored" and "other".
	s.mu.Lock()
	sl := s.index[h]
	delete(s.index, h)
	s.index[hashBytes([]byte("other"))] = sl
	s.mu.Unlock()
	if v, ok := c.Get([]byte("other")); ok {
		t.Fatalf("collision served wrong value %q", v)
	}
}

func TestShardStatsAndShards(t *testing.T) {
	c := New(Options{Shards: 3, MaxBytes: 1 << 20}) // rounds up to 4
	if c.Shards() != 4 {
		t.Fatalf("Shards() = %d; want 4 (power of two)", c.Shards())
	}
	for i := 0; i < 100; i++ {
		c.Set(fmt.Appendf(nil, "key-%d", i), []byte("v"), 0)
	}
	per := c.ShardStats()
	if len(per) != 4 {
		t.Fatalf("ShardStats() returned %d shards; want 4", len(per))
	}
	var total int64
	populated := 0
	for _, st := range per {
		total += st.Entries
		if st.Entries > 0 {
			populated++
		}
	}
	if total != 100 {
		t.Fatalf("per-shard entries sum = %d; want 100", total)
	}
	if populated < 2 {
		t.Fatalf("only %d shards populated; hash distribution broken", populated)
	}
}

func TestTelemetryCountersAndGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	// One shard, compaction held off so the delete's dead bytes stay
	// visible on the gauge.
	c := New(Options{Shards: 1, MaxBytes: 1 << 20, CompactFraction: 0.9})
	c.SetTelemetry(reg)
	c.Set([]byte("keep"), []byte("v"), 0)
	c.Set([]byte("k"), []byte("v"), 0)
	c.Get([]byte("k"))
	c.Get([]byte("nope"))
	c.Delete([]byte("k"))

	want := map[string]int64{
		"infogram_bytecache_hits_total":     1,
		"infogram_bytecache_misses_total":   1,
		"infogram_bytecache_sets_total":     2,
		"infogram_bytecache_resident_bytes": int64(len("keep") + len("v")),
		"infogram_bytecache_entries":        1,
	}
	got := map[string]int64{}
	for _, p := range reg.Snapshot() {
		if _, interested := want[p.Name]; interested && len(p.Labels) == 0 {
			got[p.Name] = p.Value
		}
	}
	for name, wantV := range want {
		if got[name] != wantV {
			t.Errorf("%s = %d; want %d", name, got[name], wantV)
		}
	}
	// Dead bytes from the delete must be visible until compaction.
	var dead int64 = -1
	for _, p := range reg.Snapshot() {
		if p.Name == "infogram_bytecache_dead_bytes" {
			dead = p.Value
		}
	}
	if dead <= 0 {
		t.Errorf("infogram_bytecache_dead_bytes = %d; want > 0 after delete", dead)
	}
}

func TestPerShardTelemetrySeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(Options{Shards: 2, MaxBytes: 1 << 20})
	c.SetTelemetry(reg)
	for i := 0; i < 32; i++ {
		c.Set(fmt.Appendf(nil, "key-%d", i), []byte("v"), 0)
	}
	var sum int64
	series := 0
	for _, p := range reg.Snapshot() {
		if p.Name == "infogram_bytecache_shard_entries" {
			series++
			sum += p.Value
		}
	}
	if series != 2 {
		t.Fatalf("shard entry series = %d; want 2", series)
	}
	if sum != 32 {
		t.Fatalf("per-shard entry gauges sum = %d; want 32", sum)
	}
}

// TestGetAllocationFree pins the hit path at zero heap allocations,
// telemetry armed — the property the whole arena design exists for.
func TestGetAllocationFree(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(Options{Shards: 8, MaxBytes: 1 << 20})
	c.SetTelemetry(reg)
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "alloc-key-%04d", i)
		c.Set(keys[i], bytes.Repeat([]byte("v"), 64), 0)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		k := keys[i&63]
		i++
		if _, ok := c.Get(k); !ok {
			t.Fatal("unexpected miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("Get allocates %.1f objects per hit; want 0", allocs)
	}
}

// TestMissAllocationFree pins the miss path too: the fill path pays for
// rendering anyway, but the lookup itself must stay free.
func TestMissAllocationFree(t *testing.T) {
	c := New(Options{Shards: 8, MaxBytes: 1 << 20})
	key := []byte("never-stored")
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Get(key); ok {
			t.Fatal("unexpected hit")
		}
	})
	if allocs != 0 {
		t.Fatalf("miss allocates %.1f objects; want 0", allocs)
	}
}

// TestOverwriteInEmptyCacheAllocations pins the compaction floor: a shard
// holding one small entry compacts once its dead bytes reach
// minCompactDead, not on every overwrite, so refreshing one key in an
// otherwise empty cache costs almost nothing per store.
func TestOverwriteInEmptyCacheAllocations(t *testing.T) {
	c := New(Options{})
	key, val := []byte("refreshed-key"), bytes.Repeat([]byte("v"), 200)
	c.Set(key, val, 0)
	// testing.AllocsPerRun rounds down to whole allocations, so count
	// the fraction directly.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const stores = 10000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < stores; i++ {
		c.Set(key, val, 0)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / stores
	if allocs >= 0.1 {
		t.Fatalf("overwriting one key allocates %.3f objects per store; want < 0.1", allocs)
	}
	t.Logf("%.3f allocations per store", allocs)
	if st := c.Stats(); st.Compactions == 0 || st.DeadBytes >= minCompactDead {
		t.Fatalf("stats %+v: want compactions, and dead bytes under the %d-byte floor", st, minCompactDead)
	}
}

func TestConcurrentAccessRace(t *testing.T) {
	c := New(Options{Shards: 4, MaxBytes: 64 << 10})
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(seed int) {
			defer func() { done <- struct{}{} }()
			val := bytes.Repeat([]byte{byte('a' + seed)}, 128)
			for i := 0; i < 2000; i++ {
				k := fmt.Appendf(nil, "w%d-key-%d", seed, i%97)
				switch i % 5 {
				case 0:
					c.Set(k, val, time.Millisecond)
				case 4:
					c.Delete(k)
				default:
					if v, ok := c.Get(k); ok {
						if len(v) != 128 || v[0] != byte('a'+seed) {
							t.Errorf("worker %d read foreign bytes", seed)
							return
						}
					}
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	st := c.Stats()
	if st.LiveBytes < 0 || st.DeadBytes < 0 {
		t.Fatalf("negative byte accounting: %+v", st)
	}
}

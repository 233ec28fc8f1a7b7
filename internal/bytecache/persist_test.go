package bytecache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"infogram/internal/clock"
	"infogram/internal/journal"
	"infogram/internal/telemetry"
)

func snapshotBytes(t *testing.T, c *Cache, meta SnapshotMeta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := c.WriteSnapshot(&buf, meta); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	src := New(Options{Shards: 4, Clock: clk})
	for i := 0; i < 100; i++ {
		ttl := time.Duration(0)
		if i%2 == 0 {
			ttl = time.Duration(i+1) * time.Minute
		}
		src.Set(fmt.Appendf(nil, "key-%03d", i), fmt.Appendf(nil, "value-%03d", i), ttl)
	}
	snap := snapshotBytes(t, src, SnapshotMeta{Generation: 7, Digest: 42})

	dst := New(Options{Shards: 8, Clock: clk}) // shard count need not match
	st, meta, err := dst.RestoreSnapshot(bytes.NewReader(snap), RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 7 || meta.Digest != 42 {
		t.Fatalf("meta = %+v", meta)
	}
	if st.Restored != 100 || st.DroppedExpired != 0 || st.Torn {
		t.Fatalf("stats = %+v", st)
	}
	for i := 0; i < 100; i++ {
		v, ok := dst.Get(fmt.Appendf(nil, "key-%03d", i))
		if !ok || string(v) != fmt.Sprintf("value-%03d", i) {
			t.Fatalf("key %d: got %q, %v", i, v, ok)
		}
	}
}

func TestRestoreKeepsOriginalDeadlines(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	src := New(Options{Shards: 1, Clock: clk})
	src.Set([]byte("short"), []byte("v1"), time.Minute)
	src.Set([]byte("long"), []byte("v2"), time.Hour)
	snap := snapshotBytes(t, src, SnapshotMeta{})

	// 30 minutes pass before the restart: "short" is past its deadline and
	// must be dropped, "long" keeps the remainder of its original TTL.
	clk.Advance(30 * time.Minute)
	dst := New(Options{Shards: 1, Clock: clk})
	st, _, err := dst.RestoreSnapshot(bytes.NewReader(snap), RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 1 || st.DroppedExpired != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, ok := dst.Get([]byte("short")); ok {
		t.Fatal("expired entry resurrected")
	}
	if _, ok := dst.Get([]byte("long")); !ok {
		t.Fatal("unexpired entry missing after restore")
	}
	// The original deadline, not a fresh TTL: 31 more minutes put "long"
	// past its 60-minute life even though it was restored 30 minutes in.
	clk.Advance(31 * time.Minute)
	if _, ok := dst.Get([]byte("long")); ok {
		t.Fatal("restored entry outlived its original deadline")
	}
}

func TestRestoreTornTailKeepsPrefix(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	src := New(Options{Shards: 1, Clock: clk})
	for i := 0; i < 10; i++ {
		src.Set(fmt.Appendf(nil, "key-%d", i), []byte("value"), time.Hour)
	}
	snap := snapshotBytes(t, src, SnapshotMeta{})

	dst := New(Options{Shards: 1, Clock: clk})
	st, _, err := dst.RestoreSnapshot(bytes.NewReader(snap[:len(snap)-7]), RestoreOptions{})
	if err != nil {
		t.Fatalf("torn tail must not error: %v", err)
	}
	if !st.Torn {
		t.Fatal("tear not reported")
	}
	if st.Restored != 9 {
		t.Fatalf("restored %d, want the 9 intact entries", st.Restored)
	}
}

func TestRestoreCorruptionColdStarts(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	src := New(Options{Shards: 1, Clock: clk})
	for i := 0; i < 10; i++ {
		src.Set(fmt.Appendf(nil, "key-%d", i), []byte("value"), time.Hour)
	}
	snap := snapshotBytes(t, src, SnapshotMeta{})

	// Flip a bit in the middle of the entry stream: everything restored so
	// far must be discarded, not just the damaged frame.
	bad := append([]byte(nil), snap...)
	bad[len(bad)/2] ^= 0x10
	dst := New(Options{Shards: 1, Clock: clk})
	st, _, err := dst.RestoreSnapshot(bytes.NewReader(bad), RestoreOptions{})
	if err == nil {
		t.Fatal("corruption must be reported")
	}
	if st.Restored != 0 {
		t.Fatalf("stats claim %d restored after corruption", st.Restored)
	}
	if got := dst.Stats().Entries; got != 0 {
		t.Fatalf("%d entries survived a corrupt restore", got)
	}
	if dst.Set([]byte("k"), []byte("v"), 0); func() bool { _, ok := dst.Get([]byte("k")); return !ok }() {
		t.Fatal("cache unusable after cold start")
	}

	// A corrupt header is refused before anything is restored.
	badHeader := append([]byte(nil), snap...)
	badHeader[9] ^= 0x01
	dst2 := New(Options{Shards: 1, Clock: clk})
	if _, _, err := dst2.RestoreSnapshot(bytes.NewReader(badHeader), RestoreOptions{}); err == nil {
		t.Fatal("corrupt header accepted")
	}
}

func TestRestoreAcceptAndMapKey(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	src := New(Options{Shards: 1, Clock: clk})
	// Keys carry a little-endian generation at offset 0, like the response
	// cache's; generation 3 was current at snapshot time.
	key := func(gen uint64, n int) []byte {
		k := make([]byte, 8)
		for i := 0; i < 8; i++ {
			k[i] = byte(gen >> (8 * i))
		}
		return fmt.Appendf(k, "key-%d", n)
	}
	src.Set(key(3, 1), []byte("current"), time.Hour)
	src.Set(key(2, 2), []byte("orphan"), time.Hour) // older generation
	snap := snapshotBytes(t, src, SnapshotMeta{Generation: 3, Digest: 99})

	// Accept hook refuses a foreign digest.
	dst := New(Options{Shards: 1, Clock: clk})
	_, _, err := dst.RestoreSnapshot(bytes.NewReader(snap), RestoreOptions{
		Accept: func(m SnapshotMeta) bool { return m.Digest == 100 },
	})
	if !errors.Is(err, ErrSnapshotRejected) {
		t.Fatalf("want ErrSnapshotRejected, got %v", err)
	}
	if dst.Stats().Entries != 0 {
		t.Fatal("entries restored despite rejection")
	}

	// GenKeyMapper re-stamps generation 3 keys to generation 8 and drops
	// the orphan.
	st, _, err := dst.RestoreSnapshot(bytes.NewReader(snap), RestoreOptions{
		MapKey: GenKeyMapper(0, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 1 || st.DroppedKey != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if v, ok := dst.Get(key(8, 1)); !ok || string(v) != "current" {
		t.Fatalf("re-stamped key: %q, %v", v, ok)
	}
	if _, ok := dst.Get(key(3, 1)); ok {
		t.Fatal("old-generation key still resolves")
	}
}

func TestPersisterLifecycle(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(time.Unix(1000, 0))
	c := New(Options{Shards: 2, Clock: clk})
	c.Set([]byte("alpha"), []byte("1"), time.Hour)
	c.Set([]byte("beta"), []byte("2"), time.Hour)

	gen := uint64(5)
	p := NewPersister(c, PersistOptions{
		Path:  dir + "/cache.snap",
		Name:  "test",
		Meta:  func() SnapshotMeta { return SnapshotMeta{Generation: gen, Digest: 17} },
		Clock: clk,
	})
	// No file yet: cold boot, no error.
	if st, err := p.Restore(); err != nil || st.Restored != 0 {
		t.Fatalf("missing snapshot: %+v, %v", st, err)
	}
	if err := p.Close(); err != nil { // final snapshot on close
		t.Fatal(err)
	}

	// Same digest, newer generation: restored with keys intact (no MapKey).
	c2 := New(Options{Shards: 2, Clock: clk})
	gen = 6
	p2 := NewPersister(c2, PersistOptions{
		Path:  dir + "/cache.snap",
		Name:  "test",
		Meta:  func() SnapshotMeta { return SnapshotMeta{Generation: gen, Digest: 17} },
		Clock: clk,
	})
	if st, err := p2.Restore(); err != nil || st.Restored != 2 {
		t.Fatalf("restore: %+v, %v", st, err)
	}
	if _, ok := c2.Get([]byte("alpha")); !ok {
		t.Fatal("entry missing after persister restore")
	}

	// Different digest: refused, cold.
	c3 := New(Options{Shards: 2, Clock: clk})
	p3 := NewPersister(c3, PersistOptions{
		Path:  dir + "/cache.snap",
		Name:  "test",
		Meta:  func() SnapshotMeta { return SnapshotMeta{Digest: 18} },
		Clock: clk,
	})
	if st, err := p3.Restore(); !errors.Is(err, ErrSnapshotRejected) || st.Restored != 0 {
		t.Fatalf("foreign digest: %+v, %v", st, err)
	}
}

func TestInfoAndHitTracking(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	c := New(Options{Shards: 1, Clock: clk})
	c.Set([]byte("k"), []byte("v"), time.Minute)

	info, ok := c.Info([]byte("k"))
	if !ok || info.Hits != 0 {
		t.Fatalf("fresh entry: %+v, %v", info, ok)
	}
	if info.Expire != clk.Now().Add(time.Minute).UnixNano() {
		t.Fatalf("expire = %d", info.Expire)
	}
	for i := 0; i < 5; i++ {
		c.Get([]byte("k"))
	}
	if info, _ = c.Info([]byte("k")); info.Hits != 5 {
		t.Fatalf("hits = %d, want 5", info.Hits)
	}
	// Overwrite halves the count instead of resetting it.
	c.Set([]byte("k"), []byte("v2"), time.Minute)
	if info, _ = c.Info([]byte("k")); info.Hits != 2 {
		t.Fatalf("hits after overwrite = %d, want 2", info.Hits)
	}
	// Info is a pure read: no hit/miss accounting.
	st := c.Stats()
	if st.Hits != 5 || st.Misses != 0 {
		t.Fatalf("Info perturbed stats: %+v", st)
	}
	// Expired entries are invisible.
	clk.Advance(2 * time.Minute)
	if _, ok := c.Info([]byte("k")); ok {
		t.Fatal("Info returned an expired entry")
	}
}

func TestRangeSkipsExpired(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	c := New(Options{Shards: 4, Clock: clk})
	c.Set([]byte("live"), []byte("v"), time.Hour)
	c.Set([]byte("dying"), []byte("v"), time.Minute)
	clk.Advance(2 * time.Minute)

	seen := map[string]bool{}
	c.Range(func(v View) bool {
		seen[string(v.Key)] = true
		return true
	})
	if !seen["live"] || seen["dying"] || len(seen) != 1 {
		t.Fatalf("seen = %v", seen)
	}
}

func TestFrameReaderGuardsSnapshotOversize(t *testing.T) {
	// A header frame claiming a payload beyond maxSnapshotPayload must be
	// refused as corruption, not allocated.
	var frame []byte
	frame = journal.AppendFrame(frame, bytes.Repeat([]byte{1}, 16))
	frame[0] = 0xFF
	frame[1] = 0xFF
	frame[2] = 0xFF
	frame[3] = 0x7F
	c := New(Options{Shards: 1})
	if _, _, err := c.RestoreSnapshot(bytes.NewReader(frame), RestoreOptions{}); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

// TestSnapshotVersion2IsColdStart: older builds could write version 2,
// the entry frames behind a gzip stream. testdata/snapshot-v2.bin is such
// a file, written by that writer (four live entries, generation 3, digest
// 9). It restores as one counted cold start — nothing restored, nothing
// panics, the error is the informational kind every cold start returns —
// and the next snapshot replaces it with the current layout.
func TestSnapshotVersion2IsColdStart(t *testing.T) {
	v2, err := os.ReadFile("testdata/snapshot-v2.bin")
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewFake(time.Unix(1000, 0))
	path := filepath.Join(t.TempDir(), "resp.snap")
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	tel := telemetry.NewRegistry()
	m := NewManaged(ManagedOptions{
		Options:    Options{Shards: 2, Clock: clk},
		Generation: func() uint64 { return 3 },
		Digest:     func() uint64 { return 9 },
	})
	p := m.Persister(path, "resp", 0)
	p.SetTelemetry(tel)
	st, err := p.Restore()
	if err == nil || st != (RestoreStats{}) || m.Stats().Entries != 0 {
		t.Fatalf("version-2 restore = %+v, %v, %d resident; want a cold start", st, err, m.Stats().Entries)
	}
	cold := tel.Counter("infogram_cache_restore_cold_total", "", telemetry.Label{Key: "cache", Value: "resp"})
	if n := cold.Value(); n != 1 {
		t.Fatalf("restore_cold_total = %d, want 1", n)
	}

	m.Set(append(m.AppendGen(nil), "k"...), []byte("v"), time.Hour)
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	warm := NewManaged(ManagedOptions{
		Options:    Options{Shards: 2, Clock: clk},
		Generation: func() uint64 { return 3 },
		Digest:     func() uint64 { return 9 },
	})
	if st, err := warm.Persister(path, "resp", 0).Restore(); err != nil || st.Restored != 1 {
		t.Fatalf("restore after the rewrite = %+v, %v; want 1 restored", st, err)
	}
}

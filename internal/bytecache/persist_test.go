package bytecache

import (
	"bytes"
	"encoding/binary"
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

// genKey is a key as a Managed cache writes it: the little-endian
// generation stamp, then the body.
func genKey(gen uint64, body string) []byte {
	return append(binary.LittleEndian.AppendUint64(nil, gen), body...)
}

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
		src.Set(genKey(7, fmt.Sprintf("key-%03d", i)), fmt.Appendf(nil, "value-%03d", i), ttl)
	}
	snap := snapshotBytes(t, src, SnapshotMeta{Generation: 7, Digest: 42})

	dst := New(Options{Shards: 8, Clock: clk}) // shard count need not match
	st, err := dst.RestoreSnapshot(bytes.NewReader(snap), SnapshotMeta{Generation: 7, Digest: 42})
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 100 || st.DroppedExpired != 0 || st.DroppedKey != 0 || st.Torn {
		t.Fatalf("stats = %+v", st)
	}
	for i := 0; i < 100; i++ {
		v, ok := dst.Get(genKey(7, fmt.Sprintf("key-%03d", i)))
		if !ok || string(v) != fmt.Sprintf("value-%03d", i) {
			t.Fatalf("key %d: got %q, %v", i, v, ok)
		}
	}
}

func TestRestoreKeepsOriginalDeadlines(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	src := New(Options{Shards: 1, Clock: clk})
	src.Set(genKey(0, "short"), []byte("v1"), time.Minute)
	src.Set(genKey(0, "long"), []byte("v2"), time.Hour)
	snap := snapshotBytes(t, src, SnapshotMeta{})

	// 30 minutes pass before the restart: "short" is past its deadline and
	// must be dropped, "long" keeps the remainder of its original TTL.
	clk.Advance(30 * time.Minute)
	dst := New(Options{Shards: 1, Clock: clk})
	st, err := dst.RestoreSnapshot(bytes.NewReader(snap), SnapshotMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 1 || st.DroppedExpired != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, ok := dst.Get(genKey(0, "short")); ok {
		t.Fatal("expired entry resurrected")
	}
	if _, ok := dst.Get(genKey(0, "long")); !ok {
		t.Fatal("unexpired entry missing after restore")
	}
	// The original deadline, not a fresh TTL: 31 more minutes put "long"
	// past its 60-minute life even though it was restored 30 minutes in.
	clk.Advance(31 * time.Minute)
	if _, ok := dst.Get(genKey(0, "long")); ok {
		t.Fatal("restored entry outlived its original deadline")
	}
}

func TestRestoreTornTailKeepsPrefix(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	src := New(Options{Shards: 1, Clock: clk})
	for i := 0; i < 10; i++ {
		src.Set(genKey(0, fmt.Sprintf("key-%d", i)), []byte("value"), time.Hour)
	}
	snap := snapshotBytes(t, src, SnapshotMeta{})

	dst := New(Options{Shards: 1, Clock: clk})
	st, err := dst.RestoreSnapshot(bytes.NewReader(snap[:len(snap)-7]), SnapshotMeta{})
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
		src.Set(genKey(0, fmt.Sprintf("key-%d", i)), []byte("value"), time.Hour)
	}
	snap := snapshotBytes(t, src, SnapshotMeta{})

	// Flip a bit in the middle of the entry stream: everything restored so
	// far must be discarded, not just the damaged frame.
	bad := append([]byte(nil), snap...)
	bad[len(bad)/2] ^= 0x10
	dst := New(Options{Shards: 1, Clock: clk})
	st, err := dst.RestoreSnapshot(bytes.NewReader(bad), SnapshotMeta{})
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
	if _, err := dst2.RestoreSnapshot(bytes.NewReader(badHeader), SnapshotMeta{}); err == nil {
		t.Fatal("corrupt header accepted")
	}
}

// TestRestoreAcceptAndMapKey pins the one restore rule: a foreign digest
// refuses the snapshot, a key of the snapshot's generation is re-stamped
// to the live one, and any other key is dropped as an orphan.
func TestRestoreAcceptAndMapKey(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	src := New(Options{Shards: 1, Clock: clk})
	// Generation 3 was current at snapshot time.
	src.Set(genKey(3, "key-1"), []byte("current"), time.Hour)
	src.Set(genKey(2, "key-2"), []byte("orphan"), time.Hour) // older generation
	src.Set([]byte("short"), []byte("unstamped"), time.Hour)
	snap := snapshotBytes(t, src, SnapshotMeta{Generation: 3, Digest: 99})

	dst := New(Options{Shards: 1, Clock: clk})
	_, err := dst.RestoreSnapshot(bytes.NewReader(snap), SnapshotMeta{Generation: 8, Digest: 100})
	if !errors.Is(err, ErrSnapshotRejected) {
		t.Fatalf("want ErrSnapshotRejected, got %v", err)
	}
	if dst.Stats().Entries != 0 {
		t.Fatal("entries restored despite rejection")
	}

	st, err := dst.RestoreSnapshot(bytes.NewReader(snap), SnapshotMeta{Generation: 8, Digest: 99})
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 1 || st.DroppedKey != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if v, ok := dst.Get(genKey(8, "key-1")); !ok || string(v) != "current" {
		t.Fatalf("re-stamped key: %q, %v", v, ok)
	}
	if _, ok := dst.Get(genKey(3, "key-1")); ok {
		t.Fatal("old-generation key still resolves")
	}
}

// persisted is a Managed cache over a generation and digest the test sets.
func persisted(clk clock.Clock, gen, digest uint64, tel *telemetry.Registry) *Managed {
	return NewManaged(ManagedOptions{
		Options:    Options{Shards: 2, Clock: clk},
		Generation: func() uint64 { return gen },
		Digest:     func() uint64 { return digest },
		Telemetry:  tel,
	})
}

func TestPersisterLifecycle(t *testing.T) {
	path := t.TempDir() + "/cache.snap"
	clk := clock.NewFake(time.Unix(1000, 0))
	m := persisted(clk, 5, 17, nil)
	m.Set(genKey(5, "alpha"), []byte("1"), time.Hour)
	m.Set(genKey(5, "beta"), []byte("2"), time.Hour)

	p := m.Persister(path, "test")
	// No file yet: cold boot, no error.
	if st, err := p.Restore(); err != nil || st.Restored != 0 {
		t.Fatalf("missing snapshot: %+v, %v", st, err)
	}
	if err := p.Close(); err != nil { // final snapshot on close
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temporary file left behind: %v", err)
	}

	// Same digest, newer generation: restored under the new stamp.
	m2 := persisted(clk, 6, 17, nil)
	if st, err := m2.Persister(path, "test").Restore(); err != nil || st.Restored != 2 {
		t.Fatalf("restore: %+v, %v", st, err)
	}
	if _, ok := m2.Get(genKey(6, "alpha")); !ok {
		t.Fatal("entry missing after persister restore")
	}

	// Different digest: refused, cold.
	m3 := persisted(clk, 5, 18, nil)
	if st, err := m3.Persister(path, "test").Restore(); !errors.Is(err, ErrSnapshotRejected) || st.Restored != 0 {
		t.Fatalf("foreign digest: %+v, %v", st, err)
	}
}

// TestPersisterBackgroundLoop starts a persister with a short period: the
// loop writes at least one snapshot on its own, Close writes a final one
// holding what was stored after it, and the loop goroutine is gone.
func TestPersisterBackgroundLoop(t *testing.T) {
	path := t.TempDir() + "/cache.snap"
	tel := telemetry.NewRegistry()
	m := persisted(clock.System, 1, 2, tel)
	m.Set(genKey(1, "early"), []byte("1"), time.Hour)
	p := m.Persister(path, "loop")
	p.interval = 5 * time.Millisecond
	if st, err := p.Start(); err != nil || st.Restored != 0 {
		t.Fatalf("start on an empty dir: %+v, %v", st, err)
	}
	snaps := tel.Counter("infogram_cache_snapshot_total", "", telemetry.Label{Key: "cache", Value: "loop"})
	for deadline := time.Now().Add(5 * time.Second); snaps.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no background snapshot within 5s")
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("background snapshot left no file: %v", err)
	}

	m.Set(genKey(1, "late"), []byte("2"), time.Hour)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.done:
	default:
		t.Fatal("snapshot loop still running after Close")
	}
	after := snaps.Value()
	time.Sleep(4 * p.interval)
	if snaps.Value() != after {
		t.Fatal("a snapshot was written after Close returned")
	}

	warm := persisted(clock.System, 4, 2, nil)
	if st, err := warm.Persister(path, "loop").Restore(); err != nil || st.Restored != 2 {
		t.Fatalf("restore of the final snapshot = %+v, %v; want 2 restored", st, err)
	}
	if v, ok := warm.Get(genKey(4, "late")); !ok || string(v) != "2" {
		t.Fatalf("entry stored after the last tick = %q, %v; want it in the final snapshot", v, ok)
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
	if _, err := c.RestoreSnapshot(bytes.NewReader(frame), SnapshotMeta{}); err == nil {
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
	m := persisted(clk, 3, 9, tel)
	p := m.Persister(path, "resp")
	st, err := p.Restore()
	if err == nil || st != (RestoreStats{}) || m.Stats().Entries != 0 {
		t.Fatalf("version-2 restore = %+v, %v, %d resident; want a cold start", st, err, m.Stats().Entries)
	}
	cold := tel.Counter("infogram_cache_restore_cold_total", "", telemetry.Label{Key: "cache", Value: "resp"})
	if n := cold.Value(); n != 1 {
		t.Fatalf("restore_cold_total = %d, want 1", n)
	}

	m.Set(append(AppendGen(nil, m.Generation()), "k"...), []byte("v"), time.Hour)
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	warm := persisted(clk, 3, 9, nil)
	if st, err := warm.Persister(path, "resp").Restore(); err != nil || st.Restored != 1 {
		t.Fatalf("restore after the rewrite = %+v, %v; want 1 restored", st, err)
	}
}

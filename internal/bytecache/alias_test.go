package bytecache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestGetAliasSurvivesCompaction pins the zero-copy contract the service
// relies on to write cache hits straight to the wire: a slice returned by
// Get stays valid and unchanged while eviction marks the entry dead,
// compaction rewrites the arena, and the same key is overwritten with a
// different value. Run under -race this also proves no writer ever touches
// the aliased bytes: arenas are append-only and compaction swaps in a
// fresh one rather than rewriting in place.
func TestGetAliasSurvivesCompaction(t *testing.T) {
	c := New(Options{Shards: 1, MaxBytes: 64 << 10, CompactFraction: 0.1})

	key := []byte("pinned-key")
	want := bytes.Repeat([]byte("pinned-value-"), 16)
	c.Set(key, want, -1)
	alias, ok := c.Get(key)
	if !ok {
		t.Fatal("pinned key missing")
	}

	// Writers churn the shard hard enough to force eviction of the pinned
	// entry, repeated compaction cycles, and re-insertion of the same key
	// with different bytes — everything that could conceivably reuse the
	// aliased region.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := bytes.Repeat([]byte{byte('a' + w)}, 512)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Set(fmt.Appendf(nil, "churn-%d-%d", w, i%256), val, -1)
				if i%64 == 0 {
					c.Set(key, val, -1) // overwrite the pinned key itself
					c.Delete(fmt.Appendf(nil, "churn-%d-%d", w, (i+128)%256))
				}
			}
		}(w)
	}

	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if !bytes.Equal(alias, want) {
			close(stop)
			wg.Wait()
			t.Fatal("aliased bytes changed under churn")
		}
	}
	close(stop)
	wg.Wait()

	if got := c.Stats(); got.Compactions == 0 {
		t.Fatalf("churn produced no compaction; the test exercised nothing: %+v", got)
	}
	if !bytes.Equal(alias, want) {
		t.Fatal("aliased bytes changed after churn")
	}
}

// A value returned by Get is capped at its own bytes: appending to it
// copies, so no other entry — nor the arena tail the next Set fills —
// changes under the caller's append.
func TestGetValueCappedAtItsEnd(t *testing.T) {
	c := New(Options{Shards: 1, MaxBytes: 64 << 10})
	keys := []string{"first", "middle", "last"}
	for _, k := range keys {
		c.Set([]byte(k), []byte("value-of-"+k), -1)
	}
	v, ok := c.Get([]byte("middle"))
	if !ok {
		t.Fatal("middle missing")
	}
	if cap(v) != len(v) {
		t.Fatalf("cap(v) = %d, len(v) = %d; want equal", cap(v), len(v))
	}
	_ = append(v, "XXXXXXXXXXXXXXXXXXXXXXXX"...)
	c.Set([]byte("next"), []byte("value-of-next"), -1)
	for _, k := range append(keys, "next") {
		got, ok := c.Get([]byte(k))
		if !ok || string(got) != "value-of-"+k {
			t.Fatalf("Get(%q) = %q, %v after an append to another value; want %q", k, got, ok, "value-of-"+k)
		}
	}
}

// A compaction sizes the fresh arena for the appends until the next one,
// so the Set that follows it appends in place instead of regrowing and
// copying the shard.
func TestCompactionLeavesRoomForSets(t *testing.T) {
	c := New(Options{Shards: 1, MaxBytes: 1 << 20, CompactFraction: 0.25})
	s := &c.shards[0]
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 100; i++ {
		c.Set(fmt.Appendf(nil, "k%03d", i), val, -1)
	}
	before := s.compactions
	for i := 0; s.compactions == before; i++ {
		c.Delete(fmt.Appendf(nil, "k%03d", i))
	}
	if want := int64(float64(s.live) / (1 - 0.25)); int64(cap(s.arena)) < want {
		t.Fatalf("compacted arena cap = %d for %d live bytes; want ≥ %d", cap(s.arena), s.live, want)
	}
	arena := &s.arena[:1][0]
	c.Set([]byte("after"), val, -1)
	if &s.arena[:1][0] != arena {
		t.Fatal("the first Set after a compaction regrew the arena")
	}
}

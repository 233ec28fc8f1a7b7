package bytecache

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"infogram/internal/clock"
)

// FuzzSnapshotRestore feeds arbitrary bytes — seeded with genuine
// snapshots, then truncated and bit-flipped by the fuzzer — through
// RestoreSnapshot. The contract under test: never panic, never leave the
// cache half-poisoned (an error means zero entries survive), and stay
// fully usable afterwards.
func FuzzSnapshotRestore(f *testing.F) {
	clk := clock.NewFake(time.Unix(1000, 0))
	src := New(Options{Shards: 2, Clock: clk})
	for i := 0; i < 8; i++ {
		src.Set(fmt.Appendf(nil, "key-%d", i), bytes.Repeat([]byte{byte(i)}, i*7), time.Hour)
	}
	var whole bytes.Buffer
	if _, err := src.WriteSnapshot(&whole, SnapshotMeta{Generation: 3, Digest: 9}); err != nil {
		f.Fatal(err)
	}
	f.Add(whole.Bytes())
	f.Add(whole.Bytes()[:whole.Len()/2])
	// Keys as a Managed cache writes them — generation stamp first — so the
	// fuzzer also starts from input the mapper re-stamps instead of drops.
	stamped := NewManaged(ManagedOptions{
		Options:    Options{Shards: 2, Clock: clk},
		Generation: func() uint64 { return 3 },
		Digest:     func() uint64 { return 9 },
	})
	for i := 0; i < 8; i++ {
		stamped.Set(fmt.Appendf(stamped.AppendGen(nil), "key-%d", i), bytes.Repeat([]byte{byte(i)}, i*7), time.Hour)
	}
	var managed bytes.Buffer
	if _, err := stamped.WriteSnapshot(&managed, SnapshotMeta{Generation: 3, Digest: 9}); err != nil {
		f.Fatal(err)
	}
	f.Add(managed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("not a snapshot at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(Options{Shards: 1, Clock: clock.NewFake(time.Unix(2000, 0))})
		st, _, err := c.RestoreSnapshot(bytes.NewReader(data), RestoreOptions{
			MapKey: GenKeyMapper(0, 4),
		})
		if err != nil && st.Restored != 0 {
			t.Fatalf("error %v but %d entries claimed restored", err, st.Restored)
		}
		if err != nil && c.Stats().Entries != 0 {
			t.Fatalf("error %v but %d entries resident", err, c.Stats().Entries)
		}
		// The cache must work normally whatever the restore did.
		c.Set([]byte("probe"), []byte("value"), 0)
		if v, ok := c.Get([]byte("probe")); !ok || string(v) != "value" {
			t.Fatalf("cache unusable after restore: %q, %v", v, ok)
		}
	})
}

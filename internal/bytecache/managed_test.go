package bytecache

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"infogram/internal/clock"
	"infogram/internal/telemetry"
)

const stubTTL = 100 * time.Second

// stubOwner is a cache owner reduced to what Managed asks of one: a
// generation, a digest and a key body.
type stubOwner struct {
	m   *Managed
	clk *clock.Fake
	gen atomic.Uint64
}

func newStubOwner() *stubOwner {
	o := &stubOwner{clk: clock.NewFake(time.Unix(9000, 0))}
	o.gen.Store(1)
	o.m = NewManaged(ManagedOptions{
		Options:    Options{Shards: 4, MaxBytes: 1 << 20, DefaultTTL: stubTTL, Clock: o.clk},
		Generation: o.gen.Load,
		Digest:     func() uint64 { return 77 },
		Telemetry:  telemetry.NewRegistry(),
	})
	return o
}

func (o *stubOwner) key(name string) []byte {
	return append(AppendGen(nil, o.m.Generation()), name...)
}

func TestManagedNegTTLRule(t *testing.T) {
	for _, tc := range []struct{ ttl, want time.Duration }{
		{40 * time.Second, 10 * time.Second},             // ttl/4 above the floor
		{2 * time.Second, time.Second},                   // ttl/4 = 500ms: floored to 1s
		{500 * time.Millisecond, 500 * time.Millisecond}, // floor capped at the ttl
	} {
		m := NewManaged(ManagedOptions{Options: Options{DefaultTTL: tc.ttl}})
		if got := m.NegTTL(); got != tc.want {
			t.Errorf("ttl %v: NegTTL = %v; want %v", tc.ttl, got, tc.want)
		}
	}
}

// TestManagedPersisterRestampsAndGates: the snapshot wiring every owner
// gets — keys move to the restoring owner's generation, orphans of older
// generations are dropped, and a different digest refuses the file.
func TestManagedPersisterRestampsAndGates(t *testing.T) {
	path := t.TempDir() + "/stub.snap"
	src := newStubOwner()
	src.m.Set(src.key("old"), []byte("orphan"), 0)
	src.gen.Store(5)
	src.m.Set(src.key("k"), []byte("v"), 0)
	if err := src.m.Persister(path, "stub").Snapshot(); err != nil {
		t.Fatal(err)
	}

	dst := newStubOwner()
	dst.gen.Store(9)
	st, err := dst.m.Persister(path, "stub").Restore()
	if err != nil || st.Restored != 1 || st.DroppedKey != 1 {
		t.Fatalf("restore = %+v, %v; want 1 restored, 1 orphan dropped", st, err)
	}
	if v, ok := dst.m.Get(dst.key("k")); !ok || string(v) != "v" {
		t.Fatalf("restored entry under the new generation = %q, %v", v, ok)
	}

	foreign := NewManaged(ManagedOptions{
		Options:    Options{DefaultTTL: stubTTL, Clock: dst.clk},
		Generation: func() uint64 { return 5 },
		Digest:     func() uint64 { return 78 },
	})
	if _, err := foreign.Persister(path, "stub").Restore(); !errors.Is(err, ErrSnapshotRejected) {
		t.Fatalf("foreign-digest restore err = %v; want ErrSnapshotRejected", err)
	}
	var none *Managed
	if p := none.Persister(path, "stub"); p != nil {
		t.Fatal("nil cache produced a persister")
	}
}

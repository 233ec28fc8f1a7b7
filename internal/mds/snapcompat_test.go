package mds_test

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"time"

	"infogram/internal/bytecache"
	"infogram/internal/clock"
	"infogram/internal/mds"
	"infogram/internal/telemetry"
)

// TestGRISPreUpgradeSnapshotIsOneColdStart: before the managed-cache stack
// the directory tiers keyed entries 'b' ‖ gen ‖ filter; the stack's one
// layout is gen ‖ 'b' ‖ filter. A gris.snap written by the older layout
// must read as orphans — every entry dropped and counted, no error, no
// cold-start alarm — and the server then answers and re-caches normally.
func TestGRISPreUpgradeSnapshotIsOneColdStart(t *testing.T) {
	f := newFabric(t)
	clk := clock.NewFake(time.Unix(9000, 0))
	reg, counts := cachedCountingRegistry(clk, "Memory")

	// The old file: same provider population (so the digest gate passes),
	// keys in the old layout under the generation it was saved at.
	const oldGen = 7
	old := bytecache.New(bytecache.Options{Clock: clk})
	filters := []string{"", "(Memory:v=1)", "(objectclass=*)"}
	for _, filter := range filters {
		key := binary.LittleEndian.AppendUint64([]byte{'b'}, oldGen)
		old.Set(append(key, filter...), []byte("dn: stale\n"), time.Hour)
	}
	path := filepath.Join(t.TempDir(), "gris.snap")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.WriteSnapshot(file, bytecache.SnapshotMeta{Generation: oldGen, Digest: reg.Digest()}); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}

	tel := telemetry.NewRegistry()
	g := mds.NewGRIS(mds.GRISConfig{
		ResourceName: "res", Registry: reg, Credential: f.svc, Trust: f.trust,
		Clock: clk, CacheTTL: time.Minute, Telemetry: tel,
	})
	p := g.NewPersister(path)
	st, err := p.Restore()
	if err != nil || st.Restored != 0 || st.DroppedKey != len(filters) {
		t.Fatalf("restore = %+v, %v; want 0 restored, %d dropped, no error", st, err, len(filters))
	}
	series := func(name string) int64 {
		for _, pt := range tel.Snapshot() {
			if pt.Name == name && len(pt.Labels) == 1 && pt.Labels[0].Value == "gris" {
				return pt.Value
			}
		}
		return -1
	}
	if got := series("infogram_cache_restore_dropped_total"); got != int64(len(filters)) {
		t.Fatalf(`restore_dropped_total{cache="gris"} = %d; want %d`, got, len(filters))
	}
	if got := series("infogram_cache_restore_cold_total"); got != 0 {
		t.Fatalf(`restore_cold_total{cache="gris"} = %d; want 0 (orphans are not corruption)`, got)
	}

	// Cold, then cached under the new layout.
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		entries, err := g.Search(ctx, mds.SearchRequest{Filter: "(Memory:v=1)"})
		if err != nil || len(entries) != 1 {
			t.Fatalf("search %d = %d entries, %v", i, len(entries), err)
		}
	}
	if got := counts["Memory"].Load(); got != 1 {
		t.Fatalf("provider executions over two searches = %d; want 1 (cold, then cached)", got)
	}
}

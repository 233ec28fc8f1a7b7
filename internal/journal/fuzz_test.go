package journal

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// FuzzJournalOpen feeds arbitrary bytes to recovery as the journal's only
// segment and, optionally, as its snapshot. Seeds are genuine journals: a
// round-trip history, the same history with a torn tail, and a snapshot.
// The contract under test: Open never panics, and whenever it succeeds,
// Close followed by a second Open also succeeds and recovers the same jobs.
// Recovery must be idempotent, or a server that survived one crash could
// refuse to boot after the next.
func FuzzJournalOpen(f *testing.F) {
	dir := f.TempDir()
	j, _, err := Open(Options{Dir: dir, Fsync: FsyncNever, SnapshotEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	now := time.Unix(1700000000, 0).UnixNano()
	for _, e := range []Entry{
		{Kind: KindSubmit, Contact: "c1", Spec: "&(executable=noop)(jobtype=func)", Owner: "alice", Identity: "/O=Grid/CN=alice"},
		{Kind: KindState, Contact: "c1", State: "ACTIVE"},
		{Kind: KindState, Contact: "c1", State: "DONE", ExitCode: intPtr(0), Stdout: strPtr("out-c1")},
		{Kind: KindSubmit, Contact: "c2", Spec: "&(executable=slow)(jobtype=func)", Owner: "bob"},
		{Kind: KindState, Contact: "c2", State: "ACTIVE", Restarts: 1},
		{Kind: KindCheckpoint, Contact: "c2", Checkpoint: "step=7"},
	} {
		e.Time = now
		if err := j.Append(context.Background(), e); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(segPath(dir, 0))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg, []byte(nil), false)
	f.Add(append(seg[:len(seg):len(seg)], tornFrame...), []byte(nil), false)
	f.Add(seg[:len(seg)/2], []byte(nil), false)
	// A segment index past the eight zero-padded digits of its file name.
	f.Add([]byte(nil), []byte(`{"nextSeg":100000000,"jobs":[]}`), true)
	f.Add([]byte(nil), []byte(`{"nextSeg":0,"jobs":[{"contact":"c0","state":"ACTIVE","spec":"&(executable=x)"}]}`), true)

	j, _, err = Open(Options{Dir: dir, Fsync: FsyncNever, SnapshotEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Snapshot(); err != nil {
		f.Fatal(err)
	}
	j.Close()
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg, snap, true)

	f.Fuzz(func(t *testing.T, seg, snap []byte, withSnap bool) {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 0), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if withSnap {
			if err := os.WriteFile(filepath.Join(dir, snapshotName), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		opts := Options{Dir: dir, Fsync: FsyncNever, SnapshotEvery: -1}
		j, rec, err := Open(opts)
		if err != nil {
			return
		}
		first := j.Table().List()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, rec2, err := Open(opts)
		if err != nil {
			t.Fatalf("first Open succeeded, second failed: %v", err)
		}
		defer j2.Close()
		if second := j2.Table().List(); !reflect.DeepEqual(first, second) || !reflect.DeepEqual(rec.Unfinished, rec2.Unfinished) {
			t.Fatalf("recovered jobs differ:\nfirst  %+v\nsecond %+v", first, second)
		}
	})
}

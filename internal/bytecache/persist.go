package bytecache

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"infogram/internal/clock"
	"infogram/internal/journal"
	"infogram/internal/telemetry"
)

// Cache snapshots reuse the journal's CRC frame format so a snapshot file
// gets the same torn-tail and bit-flip story the write-ahead journal has:
// one header frame carrying the snapshot metadata, then one frame per live
// entry. A truncated tail (process killed mid-snapshot of the .tmp file
// never happens — the rename is atomic — but a torn copy or filesystem
// loss can still produce one) restores the intact prefix; a CRC mismatch
// anywhere discards everything and the cache starts cold. Restore never
// panics and never resurrects an entry past its original deadline.

const (
	// snapshotMagic opens the header frame.
	snapshotMagic = "IGBC"
	// snapshotVersion is bumped when the entry layout changes; a mismatch
	// reads as a cold start, never a misparse. Older builds could also
	// write version 2, the same frames behind a gzip stream; it too
	// restores as a cold start.
	snapshotVersion = 1
	// snapshotHeaderLen is magic + version + generation + digest + savedAt.
	snapshotHeaderLen = 4 + 1 + 8 + 8 + 8
	// entryHeaderLen is klen + vlen + stored + expire before the bytes.
	entryHeaderLen = 4 + 4 + 8 + 8
	// maxSnapshotPayload bounds one frame: one entry's header, key, and
	// value. Values are rendered response bodies, far below this.
	maxSnapshotPayload = 64 << 20
)

// ErrSnapshotRejected reports a structurally valid snapshot whose metadata
// the caller's Accept hook refused — a different provider population or
// membership digest. The cache stays cold; nothing was restored.
var ErrSnapshotRejected = errors.New("bytecache: snapshot rejected by metadata")

// SnapshotMeta travels in the snapshot header frame and gates restore.
type SnapshotMeta struct {
	// Generation is the cache owner's invalidation counter at snapshot
	// time (the respcache registry generation, the GIIS membership
	// generation). Restore re-stamps keys from this value to the current
	// one via RestoreOptions.MapKey.
	Generation uint64
	// Digest fingerprints whatever the generation counter ranges over
	// (provider population and TTLs, member set) so a restore into a
	// differently-shaped world is refused instead of trusted.
	Digest uint64
	// SavedAt is the snapshot wall-clock time in unix nanos.
	SavedAt int64
}

// RestoreStats reports what a restore did.
type RestoreStats struct {
	Restored       int  // entries brought back live
	DroppedExpired int  // entries past their deadline at restore time
	DroppedKey     int  // entries refused by MapKey (orphaned generation)
	Torn           bool // snapshot ended mid-frame; the intact prefix was kept
}

// RestoreOptions customizes RestoreSnapshot.
type RestoreOptions struct {
	// Accept inspects the header before any entry is read; returning false
	// aborts with ErrSnapshotRejected. Nil accepts everything.
	Accept func(meta SnapshotMeta) bool
	// MapKey translates a snapshotted key into a live one — typically
	// re-stamping an embedded generation counter — or drops it by
	// returning false. The slice passed in is scratch: it may be mutated
	// in place and returned, and is copied on store. Nil keeps keys as-is.
	MapKey func(key []byte, meta SnapshotMeta) ([]byte, bool)
}

// WriteSnapshot streams every live entry to w in the CRC-framed snapshot
// format and returns the entry count. Entries are gathered shard by shard
// under the shard lock but written outside it, so a slow disk never stalls
// the read path.
func (c *Cache) WriteSnapshot(w io.Writer, meta SnapshotMeta) (int, error) {
	bw := bufio.NewWriterSize(w, 256<<10)

	var frame []byte
	frame = journal.BeginFrame(frame[:0])
	frame = append(frame, snapshotMagic...)
	frame = append(frame, snapshotVersion)
	frame = binary.LittleEndian.AppendUint64(frame, meta.Generation)
	frame = binary.LittleEndian.AppendUint64(frame, meta.Digest)
	frame = binary.LittleEndian.AppendUint64(frame, uint64(meta.SavedAt))
	journal.FinishFrame(frame)
	if _, err := bw.Write(frame); err != nil {
		return 0, fmt.Errorf("bytecache: snapshot: %w", err)
	}

	entries := 0
	var werr error
	c.Range(func(v View) bool {
		frame = journal.BeginFrame(frame[:0])
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(v.Key)))
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(v.Value)))
		frame = binary.LittleEndian.AppendUint64(frame, uint64(v.Stored))
		frame = binary.LittleEndian.AppendUint64(frame, uint64(v.Expire))
		frame = append(frame, v.Key...)
		frame = append(frame, v.Value...)
		journal.FinishFrame(frame)
		if _, err := bw.Write(frame); err != nil {
			werr = err
			return false
		}
		entries++
		return true
	})
	if werr == nil {
		werr = bw.Flush()
	}
	if werr != nil {
		return entries, fmt.Errorf("bytecache: snapshot: %w", werr)
	}
	return entries, nil
}

// RestoreSnapshot reads a snapshot from r into the cache. Entries expired
// by now are dropped; a torn tail keeps the intact prefix; any corruption
// (bad CRC, malformed entry, wrong magic or version) clears the cache and
// returns an error — the caller continues cold. Never panics on arbitrary
// input.
func (c *Cache) RestoreSnapshot(r io.Reader, opts RestoreOptions) (RestoreStats, SnapshotMeta, error) {
	var st RestoreStats
	var meta SnapshotMeta

	br := bufio.NewReaderSize(r, 256<<10)
	fr := journal.NewFrameReader(br, maxSnapshotPayload)
	header, err := fr.Next()
	if err != nil {
		return st, meta, fmt.Errorf("bytecache: restore header: %w", err)
	}
	if len(header) != snapshotHeaderLen || string(header[:4]) != snapshotMagic {
		return st, meta, fmt.Errorf("%w: not a cache snapshot", journal.ErrFrameCorrupt)
	}
	if header[4] != snapshotVersion {
		return st, meta, fmt.Errorf("bytecache: restore: snapshot version %d not supported", header[4])
	}
	meta.Generation = binary.LittleEndian.Uint64(header[5:])
	meta.Digest = binary.LittleEndian.Uint64(header[13:])
	meta.SavedAt = int64(binary.LittleEndian.Uint64(header[21:]))
	if opts.Accept != nil && !opts.Accept(meta) {
		return st, meta, ErrSnapshotRejected
	}

	now := c.clk.Now().UnixNano()
	for {
		payload, err := fr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return st, meta, nil
			}
			if errors.Is(err, journal.ErrTornFrame) {
				st.Torn = true
				return st, meta, nil
			}
			// CRC mismatch or oversize length: no guarantee about anything
			// already restored either, so start over cold.
			c.Clear()
			return RestoreStats{}, meta, fmt.Errorf("bytecache: restore: %w", err)
		}
		if len(payload) < entryHeaderLen {
			c.Clear()
			return RestoreStats{}, meta, fmt.Errorf("%w: entry frame %d bytes", journal.ErrFrameCorrupt, len(payload))
		}
		klen := binary.LittleEndian.Uint32(payload)
		vlen := binary.LittleEndian.Uint32(payload[4:])
		stored := int64(binary.LittleEndian.Uint64(payload[8:]))
		expire := int64(binary.LittleEndian.Uint64(payload[16:]))
		if int64(klen)+int64(vlen)+entryHeaderLen != int64(len(payload)) {
			c.Clear()
			return RestoreStats{}, meta, fmt.Errorf("%w: entry lengths disagree with frame", journal.ErrFrameCorrupt)
		}
		key := payload[entryHeaderLen : entryHeaderLen+klen]
		value := payload[entryHeaderLen+klen:]
		if expire > 0 && now >= expire {
			st.DroppedExpired++
			continue
		}
		if opts.MapKey != nil {
			mapped, ok := opts.MapKey(key, meta)
			if !ok {
				st.DroppedKey++
				continue
			}
			key = mapped
		}
		c.put(key, value, stored, expire)
		st.Restored++
	}
}

// GenKeyMapper returns a MapKey hook for key layouts that embed a
// little-endian uint64 generation counter at a fixed offset: keys stamped
// with the snapshot's generation are re-stamped to current, anything else
// (orphans of an older generation, short keys) is dropped.
func GenKeyMapper(offset int, current uint64) func(key []byte, meta SnapshotMeta) ([]byte, bool) {
	return func(key []byte, meta SnapshotMeta) ([]byte, bool) {
		if len(key) < offset+8 {
			return nil, false
		}
		if binary.LittleEndian.Uint64(key[offset:]) != meta.Generation {
			return nil, false
		}
		binary.LittleEndian.PutUint64(key[offset:], current)
		return key, true
	}
}

// PersistOptions configures a Persister.
type PersistOptions struct {
	// Path is the snapshot file. Writes go to Path+".tmp" and rename over
	// Path, so a crash mid-snapshot leaves the previous snapshot intact.
	Path string
	// Interval between background snapshots; 0 snapshots only on Close.
	Interval time.Duration
	// Name labels this persister's telemetry series (e.g. "resp", "gris").
	Name string
	// Meta supplies the current metadata, called at every snapshot and at
	// restore (where it gates acceptance). Nil persists zero metadata and
	// accepts any snapshot.
	Meta func() SnapshotMeta
	// MapKey is passed through to RestoreSnapshot, built per restore so it
	// can close over the current generation. Nil keeps keys as-is.
	MapKey func(snap, current SnapshotMeta) func(key []byte, meta SnapshotMeta) ([]byte, bool)
	// Clock defaults to the system clock.
	Clock clock.Clock
}

// Persister owns the snapshot lifecycle of one cache: restore at boot,
// periodic background snapshots, a final snapshot on Close.
type Persister struct {
	c    *Cache
	opts PersistOptions
	clk  clock.Clock

	mu   sync.Mutex // serializes Snapshot against itself and Close
	stop chan struct{}
	done chan struct{}

	snaps     *telemetry.Counter
	snapErrs  *telemetry.Counter
	snapDur   *telemetry.Histogram
	snapSize  *telemetry.Gauge
	restored  *telemetry.Gauge
	dropped   *telemetry.Counter
	coldStart *telemetry.Counter
}

// NewPersister builds a Persister for c. Call Restore once before serving,
// Start to begin the background loop, Close to stop it and write the final
// snapshot.
func NewPersister(c *Cache, opts PersistOptions) *Persister {
	clk := opts.Clock
	if clk == nil {
		clk = clock.System
	}
	return &Persister{c: c, opts: opts, clk: clk}
}

// SetTelemetry binds the persister's metrics, labeled by the configured
// name so several persisters (GRIS and GIIS in one process) stay distinct.
func (p *Persister) SetTelemetry(reg *telemetry.Registry) {
	if p == nil || reg == nil {
		return
	}
	lb := telemetry.Label{Key: "cache", Value: p.opts.Name}
	p.snaps = reg.Counter("infogram_cache_snapshot_total", "cache snapshots written", lb)
	p.snapErrs = reg.Counter("infogram_cache_snapshot_errors_total", "cache snapshots that failed", lb)
	p.snapDur = reg.Histogram("infogram_cache_snapshot_duration_seconds", "wall-clock duration of one cache snapshot", lb)
	p.snapSize = reg.Gauge("infogram_cache_snapshot_entries", "entries in the newest cache snapshot", lb)
	p.restored = reg.Gauge("infogram_cache_restored_entries", "entries brought back by the boot-time restore", lb)
	p.dropped = reg.Counter("infogram_cache_restore_dropped_total", "snapshot entries not restored (expired or orphaned)", lb)
	p.coldStart = reg.Counter("infogram_cache_restore_cold_total", "boot-time restores that fell back to a cold start", lb)
}

// Restore loads the snapshot at Path, if any. Every failure mode — no
// file, rejected metadata, torn tail, corruption — degrades to a cold (or
// partially warm) start and is reported in the stats; the returned error
// is informational and never fatal to the caller's boot.
func (p *Persister) Restore() (RestoreStats, error) {
	if p == nil {
		return RestoreStats{}, nil
	}
	f, err := os.Open(p.opts.Path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			p.coldStart.Inc()
		}
		return RestoreStats{}, nil // no snapshot: ordinary cold boot
	}
	defer f.Close()

	var current SnapshotMeta
	if p.opts.Meta != nil {
		current = p.opts.Meta()
	}
	ropts := RestoreOptions{
		Accept: func(snap SnapshotMeta) bool { return snap.Digest == current.Digest },
	}
	if p.opts.MapKey != nil {
		// The mapper is built per restore so it can re-stamp from the
		// snapshot's generation to the current one.
		var mk func([]byte, SnapshotMeta) ([]byte, bool)
		ropts.MapKey = func(key []byte, meta SnapshotMeta) ([]byte, bool) {
			if mk == nil {
				mk = p.opts.MapKey(meta, current)
			}
			return mk(key, meta)
		}
	}
	st, _, err := p.c.RestoreSnapshot(f, ropts)
	p.restored.Set(int64(st.Restored))
	p.dropped.Add(int64(st.DroppedExpired + st.DroppedKey))
	if err != nil {
		p.coldStart.Inc()
	}
	return st, err
}

// Snapshot writes one snapshot now, atomically (tmp + rename).
func (p *Persister) Snapshot() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	start := p.clk.Now()
	var meta SnapshotMeta
	if p.opts.Meta != nil {
		meta = p.opts.Meta()
	}
	meta.SavedAt = start.UnixNano()

	tmp := p.opts.Path + ".tmp"
	if err := os.MkdirAll(filepath.Dir(p.opts.Path), 0o755); err != nil {
		p.snapErrs.Inc()
		return fmt.Errorf("bytecache: snapshot: %w", err)
	}
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		p.snapErrs.Inc()
		return fmt.Errorf("bytecache: snapshot: %w", err)
	}
	entries, err := p.c.WriteSnapshot(f, meta)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, p.opts.Path)
	}
	if err == nil {
		err = journal.SyncDir(filepath.Dir(p.opts.Path))
	}
	if err != nil {
		_ = os.Remove(tmp)
		p.snapErrs.Inc()
		return fmt.Errorf("bytecache: snapshot: %w", err)
	}
	p.snaps.Inc()
	p.snapSize.Set(int64(entries))
	p.snapDur.Observe(p.clk.Since(start))
	return nil
}

// Start launches the periodic snapshot loop when an interval is set.
func (p *Persister) Start() {
	if p == nil || p.opts.Interval <= 0 || p.stop != nil {
		return
	}
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go func() {
		defer close(p.done)
		t := time.NewTicker(p.opts.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				_ = p.Snapshot() // failure is counted; next tick retries
			case <-p.stop:
				return
			}
		}
	}()
}

// Close stops the loop and writes a final snapshot, so a clean shutdown
// always restarts warm even with no interval configured.
func (p *Persister) Close() error {
	if p == nil {
		return nil
	}
	if p.stop != nil {
		close(p.stop)
		<-p.done
		p.stop = nil
	}
	return p.Snapshot()
}

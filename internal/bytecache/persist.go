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
	// snapshotInterval is the period of a Persister's background snapshots.
	snapshotInterval = time.Minute
)

// ErrSnapshotRejected reports a structurally valid snapshot taken under
// another digest — a different provider population or member set. The
// cache stays cold; nothing was restored.
var ErrSnapshotRejected = errors.New("bytecache: snapshot rejected by metadata")

// SnapshotMeta travels in the snapshot header frame and gates restore.
type SnapshotMeta struct {
	// Generation is the cache owner's invalidation counter at snapshot
	// time (the respcache registry generation, the GIIS membership
	// generation), stamped little-endian into key bytes [0,8). Restore
	// re-stamps keys from this value to the current one.
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
	DroppedKey     int  // entries of another generation (orphans)
	Torn           bool // snapshot ended mid-frame; the intact prefix was kept
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

// RestoreSnapshot reads a snapshot from r into the cache under the one
// restore rule. A snapshot whose digest is not cur.Digest is refused with
// ErrSnapshotRejected before any entry is read. An entry whose key starts
// with the snapshot's generation is stored re-stamped to cur.Generation;
// any other key is an orphan of an older generation and dropped. Entries
// expired by now are dropped; a torn tail keeps the intact prefix; any
// corruption (bad CRC, malformed entry, wrong magic or version) clears the
// cache and returns an error — the caller continues cold. Never panics on
// arbitrary input.
func (c *Cache) RestoreSnapshot(r io.Reader, cur SnapshotMeta) (RestoreStats, error) {
	var st RestoreStats

	br := bufio.NewReaderSize(r, 256<<10)
	fr := journal.NewFrameReader(br, maxSnapshotPayload)
	header, err := fr.Next()
	if err != nil {
		return st, fmt.Errorf("bytecache: restore header: %w", err)
	}
	if len(header) != snapshotHeaderLen || string(header[:4]) != snapshotMagic {
		return st, fmt.Errorf("%w: not a cache snapshot", journal.ErrFrameCorrupt)
	}
	if header[4] != snapshotVersion {
		return st, fmt.Errorf("bytecache: restore: snapshot version %d not supported", header[4])
	}
	snapGen := binary.LittleEndian.Uint64(header[5:])
	if binary.LittleEndian.Uint64(header[13:]) != cur.Digest {
		return st, ErrSnapshotRejected
	}

	now := c.clk.Now().UnixNano()
	for {
		payload, err := fr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return st, nil
			}
			if errors.Is(err, journal.ErrTornFrame) {
				st.Torn = true
				return st, nil
			}
			// CRC mismatch or oversize length: no guarantee about anything
			// already restored either, so start over cold.
			c.Clear()
			return RestoreStats{}, fmt.Errorf("bytecache: restore: %w", err)
		}
		if len(payload) < entryHeaderLen {
			c.Clear()
			return RestoreStats{}, fmt.Errorf("%w: entry frame %d bytes", journal.ErrFrameCorrupt, len(payload))
		}
		klen := binary.LittleEndian.Uint32(payload)
		vlen := binary.LittleEndian.Uint32(payload[4:])
		stored := int64(binary.LittleEndian.Uint64(payload[8:]))
		expire := int64(binary.LittleEndian.Uint64(payload[16:]))
		if int64(klen)+int64(vlen)+entryHeaderLen != int64(len(payload)) {
			c.Clear()
			return RestoreStats{}, fmt.Errorf("%w: entry lengths disagree with frame", journal.ErrFrameCorrupt)
		}
		key := payload[entryHeaderLen : entryHeaderLen+klen]
		value := payload[entryHeaderLen+klen:]
		if expire > 0 && now >= expire {
			st.DroppedExpired++
			continue
		}
		if len(key) < 8 || binary.LittleEndian.Uint64(key) != snapGen {
			st.DroppedKey++
			continue
		}
		// key aliases the frame reader's buffer, and put copies it.
		binary.LittleEndian.PutUint64(key, cur.Generation)
		c.put(key, value, stored, expire)
		st.Restored++
	}
}

// Persister owns the snapshot lifecycle of one managed cache: Start
// restores the snapshot and launches a loop that writes one every
// snapshotInterval, Close stops the loop and writes the final one. Every
// method is nil-safe, so an owner whose cache is disabled hands out nil.
type Persister struct {
	m        *Managed
	path     string
	interval time.Duration // snapshotInterval; a field only so tests can shorten it

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

// Persister wires the snapshot lifecycle for this cache at path (written
// through path+".tmp" and a rename, so a crash mid-snapshot leaves the
// previous one intact). Snapshots carry the owner's generation and digest,
// and restore applies RestoreSnapshot's rule against the live ones. Its
// metrics go to the cache's registry, labeled cache=name so several
// persisters in one process stay distinct. Returns nil for a nil cache.
func (m *Managed) Persister(path, name string) *Persister {
	if m == nil {
		return nil
	}
	reg, lb := m.tel, telemetry.Label{Key: "cache", Value: name}
	return &Persister{
		m:         m,
		path:      path,
		interval:  snapshotInterval,
		snaps:     reg.Counter("infogram_cache_snapshot_total", "cache snapshots written", lb),
		snapErrs:  reg.Counter("infogram_cache_snapshot_errors_total", "cache snapshots that failed", lb),
		snapDur:   reg.Histogram("infogram_cache_snapshot_duration_seconds", "wall-clock duration of one cache snapshot", lb),
		snapSize:  reg.Gauge("infogram_cache_snapshot_entries", "entries in the newest cache snapshot", lb),
		restored:  reg.Gauge("infogram_cache_restored_entries", "entries brought back by the boot-time restore", lb),
		dropped:   reg.Counter("infogram_cache_restore_dropped_total", "snapshot entries not restored (expired or orphaned)", lb),
		coldStart: reg.Counter("infogram_cache_restore_cold_total", "boot-time restores that fell back to a cold start", lb),
	}
}

// Restore loads the snapshot at the persister's path, if any. Every
// failure mode — no file, a foreign digest, torn tail, corruption —
// degrades to a cold (or partially warm) start and is reported in the
// stats; the returned error is informational and never fatal to the
// caller's boot.
func (p *Persister) Restore() (RestoreStats, error) {
	if p == nil {
		return RestoreStats{}, nil
	}
	f, err := os.Open(p.path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			p.coldStart.Inc()
		}
		return RestoreStats{}, nil // no snapshot: ordinary cold boot
	}
	defer f.Close()
	st, err := p.m.RestoreSnapshot(f, SnapshotMeta{Generation: p.m.gen(), Digest: p.m.digest()})
	p.restored.Set(int64(st.Restored))
	p.dropped.Add(int64(st.DroppedExpired + st.DroppedKey))
	if err != nil {
		p.coldStart.Inc()
	}
	return st, err
}

// Snapshot writes one snapshot now and syncs its directory.
func (p *Persister) Snapshot() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	start := p.m.clk.Now()
	meta := SnapshotMeta{Generation: p.m.gen(), Digest: p.m.digest(), SavedAt: start.UnixNano()}
	dir := filepath.Dir(p.path)
	entries := 0
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = journal.ReplaceFile(p.path, func(w io.Writer) (err error) {
			entries, err = p.m.WriteSnapshot(w, meta)
			return err
		})
	}
	if err == nil {
		err = journal.SyncDir(dir)
	}
	if err != nil {
		p.snapErrs.Inc()
		return fmt.Errorf("bytecache: snapshot: %w", err)
	}
	p.snaps.Inc()
	p.snapSize.Set(int64(entries))
	p.snapDur.Observe(p.m.clk.Since(start))
	return nil
}

// Start restores the snapshot (Restore) and then launches the background
// loop. Call it once, after whatever the digest covers is in place and
// before the owner serves, so the first request already hits warm.
func (p *Persister) Start() (RestoreStats, error) {
	if p == nil {
		return RestoreStats{}, nil
	}
	st, err := p.Restore()
	p.stop, p.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.done)
		t := time.NewTicker(p.interval)
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
	return st, err
}

// Close stops the loop and writes a final snapshot, so a clean shutdown
// always restarts warm.
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

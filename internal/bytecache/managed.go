package bytecache

import (
	"encoding/binary"
	"sync"
	"time"

	"infogram/internal/telemetry"
)

// Managed is the one managed-cache stack every rendered-response cache in
// the system instantiates (the gatekeeper's response cache, the GRIS and
// the GIIS): a Cache plus everything those caches would otherwise each
// re-wire around it.
//
//   - Key layout gen(8) ‖ body. The owner's invalidation counter is stamped
//     little-endian into key bytes [0,8) (AppendGen), so any churn makes
//     every older entry unreachable at once; orphans age out by TTL or LRU.
//     A request reads the counter once (Generation), before its lookup, and
//     stamps every key it touches with that value: an answer computed while
//     the owner churns is stored under the generation it was computed from,
//     where the churn has already orphaned it.
//   - One negative-TTL rule (NegTTL): TTL/4, floored at one second so a
//     small TTL cannot make empty or failed answers uncacheable, capped at
//     the TTL itself.
//   - Snapshot wiring (Persister, persist.go): the generation re-stamp and
//     the digest trust gate.
//
// The owner supplies what is genuinely its own: Generation, Digest, the key
// body it appends after the stamp, and the per-entry TTL. Get, Set and
// Stats are the embedded Cache's — the hit path is a direct call into
// (*Cache).Get. The owner's miss path is the only fill path.
type Managed struct {
	*Cache

	gen    func() uint64
	digest func() uint64
	negTTL time.Duration
	tel    *telemetry.Registry
}

// ManagedOptions configures a Managed cache.
type ManagedOptions struct {
	// Options sizes the byte cache; DefaultTTL is the lifetime cap the
	// negative TTL is derived from.
	Options
	// Generation is the owner's invalidation counter, stamped into every key.
	Generation func() uint64
	// Digest fingerprints whatever Generation ranges over; a snapshot taken
	// under a different digest is refused.
	Digest func() uint64
	// Telemetry, when set, receives the byte cache's series and its
	// Persister's.
	Telemetry *telemetry.Registry
}

// NewManaged builds the cache.
func NewManaged(opts ManagedOptions) *Managed {
	m := &Managed{
		Cache:  New(opts.Options),
		gen:    opts.Generation,
		digest: opts.Digest,
		tel:    opts.Telemetry,
	}
	m.SetTelemetry(opts.Telemetry)
	ttl := opts.DefaultTTL
	m.negTTL = min(max(ttl/4, time.Second), ttl)
	return m
}

// Generation reads the owner's current generation, the value a request
// stamps into every key it looks up or stores.
func (m *Managed) Generation() uint64 { return m.gen() }

// AppendGen appends gen little-endian: the first eight bytes of every key.
// The caller appends its key body after it.
func AppendGen(buf []byte, gen uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, gen)
}

// NegTTL is the lifetime of negative entries — failed lookups and answers
// that matched nothing — which must recover quickly once data appears.
func (m *Managed) NegTTL() time.Duration { return m.negTTL }

// scratch pools the buffers callers assemble keys and values in, so the
// hit path builds its key without a heap allocation.
var scratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 256)
	return &b
}}

// GetScratch returns a pooled buffer; use (*p)[:0] and hand the grown slice
// back through PutScratch.
func GetScratch() *[]byte { return scratch.Get().(*[]byte) }

// PutScratch returns p to the pool, keeping used's (possibly grown) backing
// array. Get and Set copy what they keep, so this is safe right after them.
func PutScratch(p *[]byte, used []byte) {
	*p = used[:0]
	scratch.Put(p)
}

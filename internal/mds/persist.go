package mds

import (
	"hash/fnv"
	"sort"

	"infogram/internal/bytecache"
)

// Warm-restart persistence for the MDS caches. The managed cache stamps
// every key with a generation counter and gates a restore on a digest over
// what the counter ranges over — the provider population for a GRIS
// (provider.Registry.Digest, as the gatekeeper's response cache uses), the
// member set for a GIIS. The counters restart from zero on boot and would
// otherwise collide meaninglessly with a snapshot's values.

// membershipDigest fingerprints a GIIS's member set. Member provider TTLs
// are not visible across the wire, so the addresses alone carry the
// identity: a GIIS restarted with the same registrants trusts its
// snapshot, one pointed at different GRISes starts cold.
func membershipDigest(members []string) uint64 {
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	h := fnv.New64a()
	for _, m := range sorted {
		h.Write([]byte(m))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// NewPersister wires the GRIS response cache's snapshot lifecycle, or
// returns nil when the cache is disabled. Start it before serving, Close
// it after the GRIS.
func (g *GRIS) NewPersister(path string) *bytecache.Persister {
	return g.resp.Persister(path, "gris")
}

// NewPersister wires the GIIS aggregate cache's snapshot lifecycle, or
// returns nil when the cache is disabled. The membership digest is taken
// from the live member set, so callers must register (or restore) their
// members BEFORE calling Start — mds-server registers the -member flags
// first — or the digest comes up empty and every snapshot is refused.
func (g *GIIS) NewPersister(path string) *bytecache.Persister {
	return g.resp.Persister(path, "giis")
}

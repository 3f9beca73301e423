package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash placement map: each member contributes
// Replicas virtual points on a 64-bit hash circle, and a tenant's home is
// the first point clockwise of its key's hash. Adding or removing a member
// moves only the tenants whose arcs it owned — the property that keeps a
// scale-out from reshuffling the whole population.
//
// The ring decides *initial* placement only. The cluster's placement map
// is authoritative afterwards: migrations (operator- or rebalancer-
// driven) may move a tenant anywhere, and answers never depend on where
// it lives — that is the runtime's seed-label discipline, not the ring's.
type Ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash   uint64
	member int
}

// DefaultReplicas is the virtual-point count per member of a Cluster's
// ring: enough to keep member shares within a few percent of even.
const DefaultReplicas = 64

// NewRing builds a ring of members × replicas virtual points.
func NewRing(members, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{points: make([]ringPoint, 0, members*replicas)}
	var key [16]byte
	for m := 0; m < members; m++ {
		binary.LittleEndian.PutUint64(key[:8], uint64(m))
		for v := 0; v < replicas; v++ {
			binary.LittleEndian.PutUint64(key[8:], uint64(v))
			r.points = append(r.points, ringPoint{hash: hash16(key), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Identical hashes (vanishingly rare) break ties by member so the
		// ring is deterministic regardless of sort stability.
		return a.member < b.member
	})
	return r
}

// hash16 is FNV-1a over a 16-byte key.
func hash16(key [16]byte) uint64 {
	h := fnv.New64a()
	h.Write(key[:])
	return h.Sum64()
}

// Owner returns the member owning key's arc. Tenant keys are tagged so
// they never hash like a member's virtual point.
func (r *Ring) Owner(key int64) int {
	var kb [16]byte
	binary.LittleEndian.PutUint64(kb[:8], uint64(key))
	kb[8] = 'T'
	h := hash16(kb)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

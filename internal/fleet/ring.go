package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is the consistent-hash table mapping session-pool keys to worker
// shards. Each worker owns vnodesPerWorker points on a 64-bit circle; a key
// hashes to a point and walks clockwise to the first worker point. Virtual
// nodes smooth the load split, and consistency means adding or removing one
// worker remaps only the keys in its arcs — every other shard keeps its
// warm session pools.
//
// The ring hashes the canonical serve.Key string, NOT the request body:
// requests that share a key (and therefore could share a warmed session)
// always land on the same shard, which is the whole point — the fleet
// multiplies warm pools instead of splattering one key's load across cold
// workers.
type ring struct {
	points []ringPoint // sorted by hash
	n      int         // worker count
}

// ringPoint is one virtual node: a position on the circle owned by a worker.
type ringPoint struct {
	hash   uint64
	worker int
}

// vnodesPerWorker is the virtual-node count per worker. 64 keeps the
// worst-case load imbalance under ~15% for small fleets while the ring
// stays tiny (a few KiB).
const vnodesPerWorker = 64

// newRing builds the ring for n workers (n ≥ 1).
func newRing(n int) *ring {
	r := &ring{points: make([]ringPoint, 0, n*vnodesPerWorker), n: n}
	for w := 0; w < n; w++ {
		for v := 0; v < vnodesPerWorker; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("worker-%d/vnode-%d", w, v)), worker: w})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Deterministic tie-break: a hash collision between two workers'
		// vnodes must not make the mapping depend on sort stability.
		return r.points[i].worker < r.points[j].worker
	})
	return r
}

// ringHash is 64-bit FNV-1a.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// lookup returns the home shard for a key label.
func (r *ring) lookup(key string) int {
	return r.points[r.search(ringHash(key))].worker
}

// search finds the first point at or clockwise of h.
func (r *ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// successors returns the key's home shard followed by the remaining shards
// in clockwise-first-appearance order — the failover sequence: when the
// home shard sheds (a full queue), the request walks this list so
// a hot key's spillover lands on a stable second shard instead of a random
// one.
func (r *ring) successors(key string) []int {
	out := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	start := r.search(ringHash(key))
	for i := 0; len(out) < r.n; i++ {
		w := r.points[(start+i)%len(r.points)].worker
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

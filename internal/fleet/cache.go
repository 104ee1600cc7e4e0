package fleet

import (
	"container/list"
	"math"
	"slices"
	"sync"

	"repro/internal/api"
	"repro/internal/core"
)

// resultCache is the completed-solve cache: content hash → the solve's
// Result and the part of its solution vector the request does not carry,
// with LRU eviction past capacity. Because
// solves are deterministic (same key bits → same residual history → same
// solution bits), a hit replays the original solve bitwise — the cache
// never serves an approximation, and an entry never goes stale; capacity
// alone bounds the router's memory.
type resultCache struct {
	mu      sync.Mutex
	entries map[api.CacheKey]*list.Element
	lru     *list.List // front = most recent
	cap     int

	evictions int64
}

// cacheEntry is one cached solve, immutable once stored, so a hit can
// rebuild its answer after the lock is released. It keeps only what the
// request does not already carry: the key hashes b's exact bits, so the
// answer is b with the runs where x differs from b written over it.
type cacheEntry struct {
	key api.CacheKey
	res core.Result // owns its Trace and Stats.PerRank
	n   int         // answer length
	// cuts holds [start, end) pairs of the runs where x's bits differ from
	// b's; consecutive answers on one grid usually share one cut list.
	cuts  []int32
	words []float64 // x over the runs, in order
}

// newResultCache builds a cache holding up to capacity entries.
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		entries: make(map[api.CacheKey]*list.Element),
		lru:     list.New(),
		cap:     capacity,
	}
}

// get returns the cached solve for key, rebuilt over the request's b, or
// ok=false on miss. A hit freshens the entry's LRU position under the lock
// and copies out after it: the Result's trace and per-rank stats and the
// solution vector are the caller's own.
func (c *resultCache) get(key api.CacheKey, b []float64) (core.Result, []float64, bool) {
	var e *cacheEntry
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		e = el.Value.(*cacheEntry)
	}
	c.mu.Unlock()
	if e == nil || len(b) != e.n { // the key is length-prefixed: n never differs
		return core.Result{}, nil, false
	}
	x := slices.Clone(b)
	w := e.words
	for i := 0; i < len(e.cuts); i += 2 {
		w = w[copy(x[e.cuts[i]:e.cuts[i+1]], w):]
	}
	return ownResult(e.res), x, true
}

// put stores a completed solve of b and evicts from the LRU tail past
// capacity. Re-putting an existing key swaps in a new entry and refreshes
// its position.
func (c *resultCache) put(key api.CacheKey, res core.Result, x, b []float64) {
	if c.cap <= 0 || len(x) != len(b) {
		return
	}
	cuts, words := diffRuns(x, b)
	e := &cacheEntry{key: key, res: ownResult(res), n: len(x), cuts: cuts, words: words}
	c.mu.Lock()
	defer c.mu.Unlock()
	if front := c.lru.Front(); front != nil && slices.Equal(front.Value.(*cacheEntry).cuts, cuts) {
		e.cuts = front.Value.(*cacheEntry).cuts
	}
	if el, ok := c.entries[key]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(e)
	for c.lru.Len() > c.cap {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// diffRuns returns the [start, end) pairs of the runs where x's bits differ
// from b's, and x's words over them.
func diffRuns(x, b []float64) ([]int32, []float64) {
	var cuts []int32
	n := 0
	for k := 0; k < len(x); {
		if math.Float64bits(x[k]) == math.Float64bits(b[k]) {
			k++
			continue
		}
		lo := k
		for k < len(x) && math.Float64bits(x[k]) != math.Float64bits(b[k]) {
			k++
		}
		cuts = append(cuts, int32(lo), int32(k))
		n += k - lo
	}
	words := make([]float64, 0, n)
	for i := 0; i < len(cuts); i += 2 {
		words = append(words, x[cuts[i]:cuts[i+1]]...)
	}
	return cuts, words
}

// ownResult copies res with its own Trace and Stats.PerRank, the two parts
// a Result shares by reference.
func ownResult(res core.Result) core.Result {
	if res.Trace != nil {
		t := *res.Trace
		t.Residuals = slices.Clone(t.Residuals)
		t.EigBounds = slices.Clone(t.EigBounds)
		t.Intervals = slices.Clone(t.Intervals)
		res.Trace = &t
	}
	res.Stats.PerRank = slices.Clone(res.Stats.PerRank)
	return res
}

// cacheStats is a point-in-time snapshot of the cache's occupancy and
// eviction count.
type cacheStats struct {
	entries, evictions int64
}

// stats snapshots the counters.
func (c *resultCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{entries: int64(c.lru.Len()), evictions: c.evictions}
}

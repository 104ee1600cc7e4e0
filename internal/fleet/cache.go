package fleet

import (
	"container/list"
	"sync"

	"repro/internal/api"
	"repro/internal/core"
)

// resultCache is the completed-solve cache: content hash → the solve's
// Result and solution vector, with LRU eviction past capacity. Because
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

// cacheEntry is one cached solve. x is private to the cache; Get hands out
// copies so no caller can corrupt the replay.
type cacheEntry struct {
	key api.CacheKey
	res core.Result
	x   []float64
}

// newResultCache builds a cache holding up to capacity entries.
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		entries: make(map[api.CacheKey]*list.Element),
		lru:     list.New(),
		cap:     capacity,
	}
}

// get returns the cached solve for key, or ok=false on miss. A hit
// freshens the entry's LRU position and returns an independent copy of the
// solution vector.
func (c *resultCache) get(key api.CacheKey) (core.Result, []float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return core.Result{}, nil, false
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	x := make([]float64, len(e.x))
	copy(x, e.x)
	return e.res, x, true
}

// put stores a completed solve, copying x, and evicts from the LRU tail
// past capacity. Re-putting an existing key refreshes its value and
// position.
func (c *resultCache) put(key api.CacheKey, res core.Result, x []float64) {
	if c.cap <= 0 {
		return
	}
	xc := make([]float64, len(x))
	copy(xc, x)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		e.res, e.x = res, xc
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, res: res, x: xc})
	for c.lru.Len() > c.cap {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).key)
		c.evictions++
	}
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

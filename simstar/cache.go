package simstar

import (
	"container/list"
	"sync"
)

// DefaultCacheSize is the capacity, in cached score vectors, of an Engine's
// single-source result cache when WithCacheSize is not given.
const DefaultCacheSize = 256

// cacheKey identifies one cached single-source result. Two queries share an
// entry exactly when they resolve to the same canonical measure under the
// same registry generation, with the same numeric parameters, for the same
// query node, on the same graph epoch — the epoch is what keeps the cache
// honest now that ApplyEdits mutates the served graph in place: entries
// computed on an earlier epoch simply stop matching and age out through the
// LRU. config is a flat struct of comparable fields, so the key is usable
// as a map key directly; the serving-only knobs (workers, cache capacity,
// base epoch) are stripped by cacheParams first. The tolerance stays in
// the key — it shapes the numbers — so an eps-approximate entry can never
// be served to a request with a different (in particular, tighter)
// tolerance; the engine's lookup additionally probes the tolerance-zero
// variant of an approximate key, because an exact result satisfies every
// tolerance (see Engine.cacheLookup).
type cacheKey struct {
	measure string
	gen     uint64
	epoch   uint64
	params  config
	node    int
}

// cacheEntry is what the LRU list holds. maxErr is the MaxError certificate
// the scores were computed under: 0 for exact results, and at most the
// key's tolerance for sieved ones. It rides with the entry so a cache hit
// re-serves the original certificate, not a recomputed (and possibly
// different) one.
type cacheEntry struct {
	key    cacheKey
	scores []float64
	maxErr float64
}

// CacheStats reports the state and lifetime counters of an Engine's
// single-source result cache.
type CacheStats struct {
	// Capacity is the maximum number of score vectors kept; 0 when the
	// cache is disabled.
	Capacity int
	// Size is the number of score vectors currently cached.
	Size int
	// Hits and Misses count lookups since the cache was created or last
	// purged. Evictions counts entries dropped to stay within Capacity.
	Hits, Misses, Evictions uint64
}

// resultCache is a mutex-guarded LRU over single-source score vectors. The
// Engine's other caches (transitions, compression) are immutable and need no
// locking; this one is the first mutable shared state on the query path, so
// every access goes through mu.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	items    map[cacheKey]*list.Element
	lru      list.List // front = most recently used; values are *cacheEntry
	stats    CacheStats
}

// newResultCache returns a cache bounded to capacity entries, or nil when
// capacity < 0 (every method tolerates a nil receiver, reading as a miss).
func newResultCache(capacity int) *resultCache {
	if capacity < 0 {
		return nil
	}
	if capacity == 0 {
		capacity = DefaultCacheSize
	}
	c := &resultCache{capacity: capacity, items: make(map[cacheKey]*list.Element)}
	c.lru.Init()
	return c
}

// get returns the cached vector for key and its MaxError certificate, if
// present. The vector is the shared entry itself: entries are read-only
// (put stores a slice no one writes to afterwards and replaces an entry
// wholesale, never in place), so every reader may select from it, and the
// engine copies only where it hands a vector out (see Engine.own).
func (c *resultCache) get(key cacheKey) ([]float64, float64, bool) {
	if c == nil {
		return nil, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		return nil, 0, false
	}
	c.stats.Hits++
	c.lru.MoveToFront(el)
	entry := el.Value.(*cacheEntry)
	return entry.scores, entry.maxErr, true
}

// put stores scores under key with its MaxError certificate, evicting from
// the LRU tail to stay within capacity. The cache keeps the slice itself:
// the caller hands over a vector that nothing writes to again.
func (c *resultCache) put(key cacheKey, scores []float64, maxErr float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		entry := el.Value.(*cacheEntry)
		entry.scores, entry.maxErr = scores, maxErr
		c.lru.MoveToFront(el)
		return
	}
	c.items[key] = c.lru.PushFront(&cacheEntry{key: key, scores: scores, maxErr: maxErr})
	for len(c.items) > c.capacity {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.items, tail.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
}

// purge drops every entry and resets the counters.
func (c *resultCache) purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items = make(map[cacheKey]*list.Element)
	c.lru.Init()
	c.stats = CacheStats{}
}

// snapshot returns the current stats.
func (c *resultCache) snapshot() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Capacity = c.capacity
	st.Size = len(c.items)
	return st
}

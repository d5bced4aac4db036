// Package plancache caches optimized plans and their estimates, keyed by
// (canonical normalized query, algorithm, catalog version).
//
// The key design makes invalidation exact for free: the serving layer pins
// one immutable snapshot version per query (internal/snapshot), the version
// is part of the cache key, and published catalogs are never mutated in
// place — so an entry can never be served against a catalog it was not
// computed on, no matter how writers, replication replay, or crash recovery
// move the current version. The eviction that runs on every published bump
// (see Invalidate) is therefore a space optimization, not a correctness
// mechanism: entries for superseded versions can no longer be requested by
// new queries and are dropped eagerly instead of waiting out the LRU.
//
// The canonical normalized query (see Canonical) collapses formatting-only
// differences — whitespace, predicate order, alias and keyword case — so
// semantically identical texts share one entry, while type-tagged constant
// rendering keeps semantically distinct queries from ever colliding.
package plancache

import (
	"container/list"
	"sync"
)

// DefaultCapacity bounds the cache when the caller does not configure one
// (Limits.PlanCacheSize). 512 plans comfortably covers a dashboard-style
// repeated workload while keeping the worst-case footprint small.
const DefaultCapacity = 512

// Key identifies one cached plan: the canonical normalized query text, the
// estimation algorithm that planned it, and the catalog version it was
// planned against.
type Key struct {
	// Query is the Canonical() rendering of the bound query, plus any
	// caller suffix (e.g. a forced join order).
	Query string
	// Algo discriminates estimation configurations: the same SQL planned
	// under ELS and under SM yields different plans and estimates.
	Algo int
	// Version is the catalog snapshot version the entry was computed on.
	Version uint64
	// MemoryEnforced records whether a per-query memory budget was in
	// force: the planner swaps sort-merge for the hash join under one, so
	// a plan made without a budget must not be served under one. The
	// budget's size is deliberately left out — it does not change the plan.
	MemoryEnforced bool
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses uint64
	// Evictions counts entries dropped by the LRU capacity bound.
	Evictions uint64
	// Invalidations counts entries retired because a newer catalog version
	// was published.
	Invalidations uint64
	// Entries and Capacity describe current occupancy.
	Entries, Capacity int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type entry struct {
	key Key
	val any
}

// Cache is a bounded, thread-safe LRU over immutable plan entries. Values
// stored in it are shared by every hit — callers must treat them as
// read-only (the serving layer copies its estimate template per hit).
type Cache struct {
	//lockorder:level 50
	mu            sync.Mutex
	cap           int
	lru           *list.List // front = most recently used; stores *entry
	byKey         map[Key]*list.Element
	hits          uint64
	misses        uint64
	evictions     uint64
	invalidations uint64
}

// New creates a cache bounded to capacity entries; capacity <= 0 selects
// DefaultCapacity.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		cap:   capacity,
		lru:   list.New(),
		byKey: make(map[Key]*list.Element),
	}
}

// Get returns the value cached under k, marking it most recently used.
func (c *Cache) Get(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put stores v under k, evicting the least recently used entry if the
// cache is full. Storing an existing key replaces its value.
func (c *Cache) Put(k Key, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		el.Value.(*entry).val = v
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.byKey, oldest.Value.(*entry).key)
		c.evictions++
	}
	c.byKey[k] = c.lru.PushFront(&entry{key: k, val: v})
}

// Invalidate retires every entry whose version differs from current. The
// snapshot store calls it on each publication (mutation, replication
// replay, or recovery jump); entries at the surviving version — queries
// already pinned there — stay servable.
func (c *Cache) Invalidate(current uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		en := el.Value.(*entry)
		if en.key.Version != current {
			c.lru.Remove(el)
			delete(c.byKey, en.key)
			c.invalidations++
		}
	}
}

// SetCapacity rebounds the cache, evicting LRU entries if it shrank below
// the current occupancy. n <= 0 selects DefaultCapacity.
func (c *Cache) SetCapacity(n int) {
	if n <= 0 {
		n = DefaultCapacity
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = n
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.byKey, oldest.Value.(*entry).key)
		c.evictions++
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       c.lru.Len(),
		Capacity:      c.cap,
	}
}

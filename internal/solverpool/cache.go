package solverpool

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/procgraph"
	"repro/internal/taskgraph"
)

// This file is the content-addressed schedule cache: a bounded memo of
// finished solve results keyed by everything that determines the answer —
// the instance digest (graph + system, the same fingerprint the model
// cache uses) plus a caller-supplied digest of the solve configuration
// (engine selection, budget, heuristic, pruning toggles). A service
// fronting the pool consults it before solving: most production traffic
// resubmits the same DAG shapes, and an identical submission can be
// answered from the memo without a single engine expansion.
//
// The cache holds decoded values of a caller-chosen type (the server's
// terminal JobResult), so a hit costs no decode; the value is returned by
// copy, and anything it shares by reference (slices, maps) the caller must
// treat as read-only.
//
// An entry also keeps the instance it answered. The digests are 64-bit
// FNV-1a, which is not collision-resistant, so a lookup is confirmed by
// exact instance comparison (sameInstance) before it counts as a hit: a
// crafted instance whose digests match another's must never receive the
// other's schedule. The comparison is a pointer check when the caller
// passes the very instance the entry holds; a hit confirmed by the full
// walk repoints the entry at the caller's instance, so the next lookup
// with it is a pointer check again.
//
// Because an entry keeps its instance alive, it is charged the size the
// caller reports (the server charges the encoded result) plus the
// instance's footprint (Graph.Footprint + System.Footprint, dominated by
// the P×P distance matrix), so the byte budget bounds the memory the
// cache holds. Entries that share one instance are each charged for it,
// which over-counts, never under-counts. Entries are evicted
// least-recently-used once the budget is exceeded.

// CacheKey addresses one cached result: the instance digest pair plus the
// configuration digest. Two submissions with equal keys would run the
// identical search under the identical budget.
type CacheKey struct {
	Graph  uint64
	System uint64
	Config uint64
}

// CacheStats counts the cache's behaviour for health and metrics views.
type CacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Bypasses int64 `json:"bypasses"`
	// Collisions counts lookups whose key matched an entry for a different
	// instance; each is also a miss.
	Collisions int64 `json:"collisions"`
	Entries    int   `json:"entries"`
	Bytes      int64 `json:"bytes"`
}

// ResultCache is a concurrency-safe LRU cache of solve results of type V.
// Construct with NewResultCache; a nil *ResultCache is a valid no-op
// cache (Get always misses, Put discards), so callers can thread one
// through unconditionally.
type ResultCache[V any] struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	entries  map[CacheKey]*list.Element

	hits, misses, bypasses, collisions atomic.Int64
}

// cacheEntry is one resident result and the instance it answered.
type cacheEntry[V any] struct {
	key   CacheKey
	g     *taskgraph.Graph
	sys   *procgraph.System
	value V
	// charge is the caller's size plus the instance footprint.
	charge int64
}

// NewResultCache returns a cache bounded to maxBytes of charged bytes;
// maxBytes <= 0 returns nil (the no-op cache).
func NewResultCache[V any](maxBytes int64) *ResultCache[V] {
	if maxBytes <= 0 {
		return nil
	}
	return &ResultCache[V]{
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  map[CacheKey]*list.Element{},
	}
}

// Get returns a copy of the value stored for key when it answered the
// instance (g, sys), and marks the entry recently used. An entry for a
// different instance under the same key is a collision: Get misses and
// counts it, and the caller's solve then replaces the entry through Put.
func (c *ResultCache[V]) Get(key CacheKey, g *taskgraph.Graph, sys *procgraph.System) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	var e cacheEntry[V]
	if ok {
		c.ll.MoveToFront(el)
		e = *el.Value.(*cacheEntry[V])
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return zero, false
	}
	if e.g != g || e.sys != sys {
		// The full walk runs outside the lock. A confirmed hit repoints
		// the entry at the caller's equal instance (unless a Put replaced
		// it meanwhile): the caller's is the one its own memo now shares,
		// so its next lookups are pointer checks.
		if !sameInstance(e.g, e.sys, g, sys) {
			c.collisions.Add(1)
			c.misses.Add(1)
			return zero, false
		}
		c.mu.Lock()
		if cur := el.Value.(*cacheEntry[V]); c.entries[key] == el && cur.g == e.g && cur.sys == e.sys {
			cur.g, cur.sys = g, sys
		}
		c.mu.Unlock()
	}
	c.hits.Add(1)
	return e.value, true
}

// Put stores value as the answer for (g, sys) under key, charged size
// bytes plus the instance's footprint, replacing any previous value, and
// evicts least-recently-used entries until the byte budget holds. An entry
// whose charge exceeds the whole budget is not admitted.
func (c *ResultCache[V]) Put(key CacheKey, g *taskgraph.Graph, sys *procgraph.System, value V, size int64) {
	if c == nil {
		return
	}
	charge := size + g.Footprint() + sys.Footprint()
	if charge > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry[V])
		c.bytes += charge - e.charge
		e.g, e.sys, e.value, e.charge = g, sys, value, charge
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&cacheEntry[V]{key: key, g: g, sys: sys, value: value, charge: charge})
		c.bytes += charge
	}
	for c.bytes > c.maxBytes {
		el := c.ll.Back()
		if el == nil {
			break
		}
		e := el.Value.(*cacheEntry[V])
		c.ll.Remove(el)
		delete(c.entries, e.key)
		c.bytes -= e.charge
	}
}

// NoteBypass counts a submission that carried the cache escape hatch and
// skipped the lookup.
func (c *ResultCache[V]) NoteBypass() {
	if c == nil {
		return
	}
	c.bypasses.Add(1)
}

// Stats snapshots the counters. A nil cache reports zeros.
func (c *ResultCache[V]) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	entries, bytes := len(c.entries), c.bytes
	c.mu.Unlock()
	return CacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Bypasses:   c.bypasses.Load(),
		Collisions: c.collisions.Load(),
		Entries:    entries,
		Bytes:      bytes,
	}
}

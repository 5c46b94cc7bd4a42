package core

import (
	"math/bits"
	"sync"
)

// Buffer reuse across solves. Nearly all a serial A*/Aε* solve allocates
// is three kinds of buffer: the arena slabs, the visited table's slot
// array, and the OPEN list's entry arrays (the exact heap's, or one per
// depth for a FocalQueue). All are reused through the pools below;
// Search hands its buffers back when it returns.
//
// Solves of very different sizes follow one another: on the benchmark's
// paper-exact workload about 39% of solves need a smaller visited table
// than the solve before them, and their own tables range from 2^10 to
// 2^17 slots. A single pool would hand a small solve the largest table
// any earlier solve grew, and clearing it on release would cost more than
// the solve. Slot and entry arrays are therefore pooled by size: a table
// or heap starts at its minimum size and each doubling takes the next
// size's array, handing the old one back emptied. A solve only ever
// touches arrays of the sizes it grows through itself, so the clearing
// it pays is the zeroing a fresh allocation would have cost, and a pool
// that misses (sync.Pool keeps a P's latest item where other Ps cannot
// take it) costs one array, not a solve's worth. Releasing a heap clears
// only the entries still queued: a pop zeroes the slot it vacates.
//
// The arena is pooled whole, every slab parked on its own free list; it
// is never cleared, because Arena.New hands out slots whose every field
// the caller assigns. A pooled arena's stale states link only to states
// in its own slabs (or to an earlier solve's root), so it keeps no other
// memory alive. A Tracer sees a state only while the solve runs (see
// Tracer).

// reuseMaxSlots is the largest buffer, in slots, the pools keep: 4 MiB of
// visited slots or OPEN entries, or 12 MiB of arena states. It covers
// every table, heap and arena the benchmark's workloads build (at most
// 2^18 visited slots; OPEN peaks below 10^5 states, arenas near 146k);
// larger ones are left to the collector, so one huge solve cannot keep
// tens of MiB alive.
const reuseMaxSlots = 1 << 18

var (
	visitedSlots = newArrayPool[visEntry](visitedMinSize)
	openEntries  = newArrayPool[openEntry](openMinSize)
	arenas       sync.Pool // *Arena with every slab on its free list
)

// arrayPool keeps emptied arrays by size, one sync.Pool per power of two
// from min to reuseMaxSlots.
type arrayPool[T any] struct {
	min     int
	classes []sync.Pool // classes[c] holds arrays of min<<c elements
}

func newArrayPool[T any](min int) *arrayPool[T] {
	return &arrayPool[T]{min: min, classes: make([]sync.Pool, bits.Len(uint(reuseMaxSlots/min)))}
}

// take returns a zeroed array of n elements, n a power of two no smaller
// than the pool's minimum.
func (p *arrayPool[T]) take(n int) []T {
	if n <= reuseMaxSlots {
		if a, ok := p.classes[bits.Len(uint(n/p.min))-1].Get().(*[]T); ok {
			return *a
		}
	}
	return make([]T, n)
}

// put zeroes a, which must hold every non-zero element of its array, and
// pools the array; the caller must not use it afterwards.
func (p *arrayPool[T]) put(a []T) {
	n := cap(a)
	if n < p.min || n > reuseMaxSlots {
		return
	}
	clear(a)
	a = a[:n]
	p.classes[bits.Len(uint(n/p.min))-1].Put(&a)
}

// grow doubles the table, returning the old slot array to its pool.
func (vt *Visited) grow() {
	old := vt.entries
	vt.entries = visRehash(old, visitedSlots.take(2*len(old)))
	visitedSlots.put(old)
}

// grow doubles the heap's array (or gives an empty heap its first one),
// returning the old array to its pool.
func (h *openHeap) grow() {
	old := h.items
	h.items = append(openEntries.take(max(2*cap(old), openMinSize))[:0], old...)
	openEntries.put(old)
}

// takeArena returns an arena with no state allocated.
func takeArena() *Arena {
	if a, ok := arenas.Get().(*Arena); ok {
		return a
	}
	return NewArena()
}

// releaseBuffers returns a finished solve's arena, visited slots and OPEN
// entry arrays to the pools, emptied; none may be used afterwards.
// Buffers holding more than reuseMaxSlots entries go to the collector
// instead.
func releaseBuffers(open Queue, vt *Visited, arena *Arena) {
	visitedSlots.put(vt.entries)
	vt.entries = nil
	arena.Release(ArenaMark{})
	if len(arena.free)*arenaSlabSize <= reuseMaxSlots {
		arenas.Put(arena)
	}
	switch q := open.(type) {
	case *BestFirstQueue:
		openEntries.put(q.h.items)
		q.h.items = nil
	case *FocalQueue:
		for i := range q.buckets {
			openEntries.put(q.buckets[i].items)
		}
		q.buckets, q.n = nil, 0
	}
}

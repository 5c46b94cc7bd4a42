package core

import (
	"math/bits"
	"sync"

	"repro/internal/heapx"
)

// Buffer reuse across solves. Nearly all a serial A* solve allocates is
// three buffers: the arena slabs, the visited table's slot array and the
// OPEN list's backing array. The last two are reused through the pools
// below; SolveModel hands its buffers back when it returns.
//
// Solves of very different sizes follow one another: on the benchmark's
// paper-exact workload about 39% of solves need a smaller visited table
// than the solve before them, and their own tables range from 2^10 to
// 2^17 slots. A single pool would hand a small solve the largest table
// any earlier solve grew, and clearing it on release would cost more than
// the solve. Slot arrays are therefore pooled by size: a table starts at
// visitedMinSize and each doubling takes the next size's array, handing
// the old one back emptied. A solve only ever touches arrays of the sizes
// it grows through itself, so the clearing it pays is the zeroing a fresh
// allocation would have cost.
//
// The exact OPEN heap is pooled whole: emptying it clears only the states
// still queued, never the unused capacity.
//
// The arena is deliberately not pooled: a Tracer may keep *State pointers
// after the solve (trace.Recorder's tree does), so a slab handed to the
// next solve would rewrite states a caller still reads.

// reuseMaxSlots is the largest buffer, in slots, the pools keep: 4 MiB of
// visited slots or 2 MiB of OPEN pointers. It covers every table and heap
// the benchmark's workloads need (at most 2^18 visited slots; exact OPEN
// heaps peak below 10^5 states); larger ones are left to the collector,
// so one huge solve cannot keep tens of MiB alive.
const reuseMaxSlots = 1 << 18

var (
	// visitedSlots[c] holds emptied slot arrays of visitedMinSize<<c slots.
	visitedSlots = make([]sync.Pool, bits.Len(reuseMaxSlots/visitedMinSize))
	openHeaps    sync.Pool // *heapx.Heap[*State] ordered by Less, empty
)

// slotClass returns the pool of arrays of n slots, a power of two from
// visitedMinSize to reuseMaxSlots.
func slotClass(n int) *sync.Pool {
	return &visitedSlots[bits.Len(uint(n/visitedMinSize))-1]
}

// takeSlots returns an empty slot array of n slots, n a power of two no
// smaller than visitedMinSize.
func takeSlots(n int) []visEntry {
	if n <= reuseMaxSlots {
		if p, ok := slotClass(n).Get().(*[]visEntry); ok {
			return *p
		}
	}
	return make([]visEntry, n)
}

// putSlots empties entries and pools it; the caller must not use it
// afterwards.
func putSlots(entries []visEntry) {
	if len(entries) > reuseMaxSlots {
		return
	}
	clear(entries)
	slotClass(len(entries)).Put(&entries)
}

// grow doubles the table, returning the old slot array to its pool.
func (vt *Visited) grow() {
	old := vt.entries
	vt.entries = visRehash(old, takeSlots(2*len(old)))
	putSlots(old)
}

// takeHeap returns an empty OPEN heap ordered by Less.
func takeHeap() *heapx.Heap[*State] {
	if h, ok := openHeaps.Get().(*heapx.Heap[*State]); ok {
		return h
	}
	return heapx.NewWithCapacity(Less, 1024)
}

// releaseBuffers returns a finished solve's visited slots and, for the
// exact search, its OPEN heap to the pools, emptied; neither may be used
// afterwards. A FocalQueue's per-depth heaps are not pooled.
func releaseBuffers(open Queue, vt *Visited) {
	putSlots(vt.entries)
	vt.entries = nil
	q, ok := open.(*BestFirstQueue)
	if !ok || cap(q.h.Items()) > reuseMaxSlots {
		return
	}
	q.h.Clear()
	openHeaps.Put(q.h)
	q.h = nil
}

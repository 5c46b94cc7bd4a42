package core

import (
	"sync"
)

// SharedVisited is the concurrent generalization of Visited: the same
// open-addressed duplicate table, striped into independently locked shards so
// many workers can dedup through one global table at once. A shard is chosen
// by the high bits of the state signature (the in-shard probe sequence uses
// the low bits, so the two choices stay independent), and each shard is a
// self-growing open-addressed table identical to the serial one — 16-byte
// (state, sig) slots, so a probe resolves on the signature and the
// candidate state's memory is touched only to verify a full signature
// match exactly.
//
// The global table is what makes the native parallel engine duplicate-free
// (Orr & Sinnen): a partial schedule generated by any worker is expanded at
// most once machine-wide, unlike the paper's per-PPE CLOSED lists, which
// re-explore work other PPEs have already done. Stripe locking keeps the
// common case cheap — with shards ≫ workers, two workers rarely contend on
// one mutex — and, unlike a CAS-probed scheme, makes the exact-verify chain
// walk trivially safe: entries are only ever read or written under their
// shard's lock.
type SharedVisited struct {
	shards []sharedShard
	mask   uint64
}

// sharedShard is one stripe: a mutex plus the same slab layout as Visited.
// The padding keeps hot shards on separate cache lines.
type sharedShard struct {
	mu         sync.Mutex //icpp98:lockscope striped; held for one probe on the expansion path
	entries    []visEntry
	n          int
	hits       int64
	collisions int64
	_          [64]byte
}

// sharedShardMinSize is the initial per-shard capacity (a power of two).
// Shards grow independently, so the table as a whole only pays for the
// regions of the signature space the search actually populates.
const sharedShardMinSize = 256

// NewSharedVisited returns an empty table with the given shard count,
// rounded up to a power of two; shards <= 0 selects 64, plenty of stripes
// for any worker count the engine runs.
func NewSharedVisited(shards int) *SharedVisited {
	if shards <= 0 {
		shards = 64
	}
	n := 1
	for n < shards {
		n *= 2
	}
	return &SharedVisited{shards: make([]sharedShard, n), mask: uint64(n - 1)}
}

// Add inserts s unless an identical partial schedule is already present; it
// reports whether s was new. Safe for concurrent use. Probing, growth, and
// the duplicate-identity comparison are the serial table's own (visInsert /
// visGrow), applied to one locked shard.
//
//icpp98:hotpath
func (vt *SharedVisited) Add(s *State) bool {
	// Shard by the top bits: the in-shard probe starts from the low bits,
	// so states that collide on a shard still spread inside it.
	sh := &vt.shards[(s.sig>>48)&vt.mask]
	sh.mu.Lock()         //icpp98:allow hotpath striped shard lock; contention bounded by shard count, the documented SharedVisited design
	defer sh.mu.Unlock() //icpp98:allow hotpath pairs with the sanctioned shard lock above
	if sh.entries == nil {
		sh.entries = make([]visEntry, sharedShardMinSize) //icpp98:allow hotpath lazy one-time shard init
	} else if sh.n*4 >= len(sh.entries)*3 {
		sh.entries = visGrow(sh.entries)
	}
	inserted, collisions := visInsert(sh.entries, s)
	sh.collisions += collisions
	if inserted {
		sh.n++
		return true
	}
	sh.hits++
	return false
}

// Len returns the number of distinct states recorded across all shards.
func (vt *SharedVisited) Len() int {
	total := 0
	for i := range vt.shards {
		sh := &vt.shards[i]
		sh.mu.Lock()
		total += sh.n
		sh.mu.Unlock()
	}
	return total
}

// Hits returns the number of duplicate states rejected.
func (vt *SharedVisited) Hits() int64 {
	var total int64
	for i := range vt.shards {
		sh := &vt.shards[i]
		sh.mu.Lock()
		total += sh.hits
		sh.mu.Unlock()
	}
	return total
}

// Collisions returns the number of 64-bit hash collisions caught by exact
// comparison.
func (vt *SharedVisited) Collisions() int64 {
	var total int64
	for i := range vt.shards {
		sh := &vt.shards[i]
		sh.mu.Lock()
		total += sh.collisions
		sh.mu.Unlock()
	}
	return total
}

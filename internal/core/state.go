package core

import (
	"repro/internal/schedule"
)

// State is one search state: a partial schedule (§3.1). States are stored as
// parent-linked deltas — each state records only the single (node, PE,
// start) assignment that created it — so a state costs O(1) memory and the
// full partial schedule is materialized by walking the parent chain.
//
// A state's identity for duplicate detection is the *set* of its
// (node, PE, start) triples: two states reached by different interleavings
// of the same assignments are the same partial schedule and evolve
// identically. The sig field is an order-independent 64-bit mix of the
// triples; Visited confirms hash hits exactly.
//
// A state does not carry its scheduled-node set: the expander rebuilds it
// (per node, the assigned PE or -1) from the parent chain it already walks
// to load the partial schedule, so the set costs no bytes per state and a
// State is 48 bytes.
//
// States are allocated from per-solve Arena slabs (see arena.go), never
// individually — the expander's hot path performs no heap allocation per
// child.
type State struct {
	parent *State
	sig    uint64
	g      int32 // max finish time of scheduled nodes
	h      int32 // admissible estimate of the remaining schedule length
	f      int32 // g + h
	node   int32 // node scheduled by this delta (-1 for the root)
	proc   int32
	start  int32
	finish int32
	depth  int32 // number of scheduled nodes
}

// F returns the state's cost f = g + h.
func (s *State) F() int32 { return s.f }

// G returns g(s), the length of the partial schedule.
func (s *State) G() int32 { return s.g }

// H returns h(s), the estimated remaining schedule length.
func (s *State) H() int32 { return s.h }

// Depth returns the number of scheduled nodes.
func (s *State) Depth() int32 { return s.depth }

// Node returns the node this delta scheduled (-1 for the root).
func (s *State) Node() int32 { return s.node }

// Proc returns the PE this delta's node was assigned to.
func (s *State) Proc() int32 { return s.proc }

// Start returns the start time of this delta's node.
func (s *State) Start() int32 { return s.start }

// Finish returns the finish time of this delta's node.
func (s *State) Finish() int32 { return s.finish }

// Parent returns the predecessor state (nil for the root).
func (s *State) Parent() *State { return s.parent }

// Sig returns the order-independent 64-bit signature of the partial
// schedule, used for duplicate detection and for hash-based state-space
// partitioning across PPEs (Mahapatra & Dutt style, the paper's ref. [15]).
func (s *State) Sig() uint64 { return s.sig }

// Complete reports whether the state schedules all v nodes of the model.
func (s *State) Complete(m *Model) bool { return int(s.depth) == m.V }

// Detach returns a copy of s with the parent link cleared: every field a
// tracer reads, in memory of its own, so it stays valid after the arena
// that held s is reused.
func (s *State) Detach() State {
	c := *s
	c.parent = nil
	return c
}

// Root returns the initial empty state Φ with f(Φ) = 0. The root is the one
// state allocated outside the arena: it predates the first expansion and is
// shared freely.
func Root() *State { return &State{node: -1, proc: -1} }

// Less is the OPEN-list ordering of the exact A* search: smaller f first;
// ties prefer larger g (deeper, more complete partial schedules — the
// standard A* tie-break that reaches goals sooner), then the signature for
// determinism.
//
//icpp98:hotpath
func Less(a, b *State) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	if a.depth != b.depth {
		return a.depth > b.depth
	}
	if a.g != b.g {
		return a.g > b.g
	}
	return a.sig < b.sig
}

// FocalLess is the FOCAL-list ordering of the Aε* search (§3.4): the
// secondary heuristic prefers the deepest states (most scheduled nodes),
// driving the search toward complete schedules quickly; ties fall back to
// smaller f.
//
//icpp98:hotpath
func FocalLess(a, b *State) bool {
	if a.depth != b.depth {
		return a.depth > b.depth
	}
	if a.f != b.f {
		return a.f < b.f
	}
	return a.sig < b.sig
}

// sigMix hashes one (node, proc, start) assignment; XOR-combining these per
// assignment yields the order-independent state signature.
//
//icpp98:hotpath
func sigMix(node, proc, start int32) uint64 {
	x := uint64(uint32(node))*0x9E3779B97F4A7C15 ^
		uint64(uint32(proc))*0xC2B2AE3D27D4EB4F ^
		uint64(uint32(start))*0x165667B19E3779F9
	// splitmix64 finalizer
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// sameAssignment reports whether two states with equal signatures really
// denote the same partial schedule: equal depth and g, then exact
// comparison of their (node, proc, start) sets. Every node of a's chain
// found in b's with the same placement, at equal depth, also makes the
// scheduled-node sets equal. Quadratic in depth, but only runs on 64-bit
// hash agreement.
//
//icpp98:hotpath
func sameAssignment(a, b *State) bool {
	if a.depth != b.depth || a.g != b.g {
		return false
	}
	for sa := a; sa != nil && sa.node >= 0; sa = sa.parent {
		found := false
		for sb := b; sb != nil && sb.node >= 0; sb = sb.parent {
			if sb.node == sa.node {
				found = sb.proc == sa.proc && sb.start == sa.start
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// ScheduleOf materializes the complete schedule a goal state represents.
func (m *Model) ScheduleOf(s *State) *schedule.Schedule {
	place := make([]schedule.Placement, m.V)
	for cur := s; cur != nil && cur.node >= 0; cur = cur.parent {
		place[cur.node] = schedule.Placement{Proc: cur.proc, Start: cur.start, Finish: cur.finish}
	}
	return schedule.New(m.G, m.Sys, place)
}

// Visited is the duplicate-state table (the OPEN ∪ CLOSED membership test of
// §3.1). It is an open-addressed hash table of 16-byte slots, each holding
// a state's 64-bit signature next to the state pointer: a probe resolves on
// the signature alone for every slot but a full 64-bit match, and only
// then does the exact verification (sameAssignment: depth and g first,
// then the parent chains) touch the candidate state's memory. The
// table's memory is a single flat slab that grows by doubling; keeping the
// slots small keeps that slab, its zeroing and its rehash cheap.
type Visited struct {
	entries    []visEntry // power-of-two sized, linear probing
	n          int        // occupied entries
	Hits       int64      // duplicate states rejected
	Collisions int64      // 64-bit hash collisions that exact comparison caught
}

// visEntry is one slot: the signature plus the state pointer (nil marks an
// empty slot) chased only on a signature match.
type visEntry struct {
	st  *State
	sig uint64
}

// visitedMinSize is the initial table capacity (a power of two).
const visitedMinSize = 1024

// NewVisited returns an empty table. Its slot arrays come from, and on
// growth go back to, the pools in reuse.go.
func NewVisited() *Visited {
	return &Visited{entries: visitedSlots.take(visitedMinSize)}
}

// visInsert is the one probe-and-insert implementation every visited table
// (serial Visited, the sharded SharedVisited) shares: it walks the linear
// probe sequence of s's signature, inserts s into the first empty slot
// unless an identical partial schedule is already stored, and reports
// whether s was inserted plus how many 64-bit hash collisions the exact
// comparison caught along the way. Keeping the identity comparison (sig,
// then sameAssignment) in one place guarantees the serial and concurrent
// engines can never disagree on what "duplicate" means.
//
//icpp98:hotpath
func visInsert(entries []visEntry, s *State) (inserted bool, collisions int64) {
	idx := int(s.sig) & (len(entries) - 1)
	for {
		e := &entries[idx]
		if e.st == nil {
			*e = visEntry{st: s, sig: s.sig}
			return true, collisions
		}
		if e.sig == s.sig {
			if sameAssignment(s, e.st) {
				return false, collisions
			}
			collisions++
		}
		idx = (idx + 1) & (len(entries) - 1)
	}
}

// visGrow returns a doubled table with every occupied entry reinserted.
//
//icpp98:hotpath
func visGrow(old []visEntry) []visEntry {
	return visRehash(old, make([]visEntry, len(old)*2)) //icpp98:allow hotpath doubling growth; amortized O(1) per insert
}

// visRehash reinserts every occupied entry of old into the empty, larger
// table grown and returns grown.
//
//icpp98:hotpath
func visRehash(old, grown []visEntry) []visEntry {
	for i := range old {
		e := &old[i]
		if e.st == nil {
			continue
		}
		idx := int(e.sig) & (len(grown) - 1)
		for grown[idx].st != nil {
			idx = (idx + 1) & (len(grown) - 1)
		}
		grown[idx] = *e
	}
	return grown
}

// Add inserts s unless an identical partial schedule is already present; it
// reports whether s was new.
//
//icpp98:hotpath
func (vt *Visited) Add(s *State) bool {
	if vt.n*4 >= len(vt.entries)*3 {
		vt.grow() //icpp98:allow hotpath doubling growth through the slot pools; amortized O(1) per insert
	}
	inserted, collisions := visInsert(vt.entries, s)
	vt.Collisions += collisions
	if inserted {
		vt.n++
		return true
	}
	vt.Hits++
	return false
}

// Len returns the number of distinct states recorded.
func (vt *Visited) Len() int { return vt.n }

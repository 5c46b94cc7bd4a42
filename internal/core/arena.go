package core

// Arena is a slab allocator for search states. States are parent-linked and
// long-lived (OPEN, the visited table, and every parent chain reference
// them), so the best-first engines never free individual states — they only
// release everything at once when the solve ends. Allocating them one
// `new(State)` at a time therefore buys nothing but per-child allocator and
// GC work on the hottest path of the search. The arena hands out states from
// fixed-size slabs instead: one bump-pointer increment per child, one slab
// allocation per arenaSlabSize children, and the garbage collector sees a
// handful of large objects instead of millions of small ones.
//
// The depth-first engines do discard states — in strict LIFO order (a DFS
// frame's entire subtree dies when the frame returns). Mark/Release expose
// exactly that: Mark snapshots the allocation point, Release rewinds to it,
// parking surplus slabs on a free list for reuse. Recycle additionally
// un-allocates the single most recent state, which lets the expander take
// back a child the duplicate table rejected.
//
// An Arena is owned by one Expander and is not safe for concurrent use; the
// parallel engine gives each PPE its own expander, and every arena lives
// until the solve returns, so cross-PPE state migration never outlives the
// slab that backs it. Search takes its arena from a pool and hands it
// back, every slab on the free list, when it returns (see reuse.go).
type Arena struct {
	slabs [][]State // full + current slabs, in allocation order
	used  int       // states handed out from the last slab
	free  [][]State // released slabs kept for reuse
}

// arenaSlabSize is the number of states per slab (~48 KiB at the current
// State size — large enough to amortize, small enough not to hurt tiny
// solves).
const arenaSlabSize = 1024

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// New returns a pointer to an uninitialized state slot; the caller must
// assign every field (slots are reused by Release/Recycle and carry stale
// contents).
//
//icpp98:hotpath
func (a *Arena) New() *State {
	if len(a.slabs) == 0 || a.used == arenaSlabSize {
		if n := len(a.free); n > 0 {
			a.slabs = append(a.slabs, a.free[n-1])
			a.free[n-1] = nil
			a.free = a.free[:n-1]
		} else {
			a.slabs = append(a.slabs, make([]State, arenaSlabSize)) //icpp98:allow hotpath one slab per 1024 states; amortized to ~0 allocs/op (BenchmarkExpandSteadyState)
		}
		a.used = 0
	}
	s := &a.slabs[len(a.slabs)-1][a.used]
	a.used++
	return s
}

// Recycle returns the most recently allocated state to the arena. Only the
// state handed out by the last New call may be recycled; anything else is
// ignored (the slot simply stays allocated until the arena is released).
//
//icpp98:hotpath
func (a *Arena) Recycle(s *State) {
	if n := len(a.slabs); n > 0 && a.used > 0 && s == &a.slabs[n-1][a.used-1] {
		a.used--
	}
}

// ArenaMark is a snapshot of the arena's allocation point.
type ArenaMark struct {
	slab int
	used int
}

// Mark snapshots the allocation point for a later Release.
func (a *Arena) Mark() ArenaMark { return ArenaMark{slab: len(a.slabs), used: a.used} }

// Release rewinds the arena to a previous Mark, freeing every state
// allocated since. The caller guarantees none of those states is still
// referenced (the depth-first engines materialize their incumbent schedule
// before releasing the frame that produced it).
func (a *Arena) Release(m ArenaMark) {
	for len(a.slabs) > m.slab {
		n := len(a.slabs) - 1
		a.free = append(a.free, a.slabs[n])
		a.slabs = a.slabs[:n]
	}
	a.used = m.used
	if m.slab == 0 {
		a.used = 0
	}
}

package core

// openEntry is one OPEN-list slot: the state's ordering key packed into a
// uint64 next to the state itself, 16 bytes in all. The heap's sifts
// compare keys, so they run over one flat array and read a state's own
// memory (48 bytes somewhere in the arena) only when two keys are equal.
type openEntry struct {
	key uint64
	s   *State
}

// f returns the entry's f, which both key layouts keep in their top 32
// bits with the sign bit flipped.
//
//icpp98:hotpath
func (e *openEntry) f() int32 { return int32(uint32(e.key>>32) ^ 1<<31) }

// fKey maps f into the top 32 bits of a key. Flipping the sign bit makes
// the unsigned order of the bits the signed order of f.
//
//icpp98:hotpath
func fKey(f int32) uint64 { return uint64(uint32(f)^1<<31) << 32 }

// exactKey packs the leading fields of Less into a key: f, then
// 510 − depth (deeper first), then the top 23 bits of MaxCost − g (larger
// g first). Depths are exact from 0 to 509 and g from 0 to MaxCost; a
// depth outside that range saturates its field and zeroes the g field,
// a g outside it saturates its own. Saturation and truncation only make
// distinct states' keys equal, never reverse their order, so key order
// agrees with Less wherever keys differ and Less decides the rest.
//
//icpp98:hotpath
func exactKey(s *State) uint64 {
	d := min(max(s.depth, -1), 510)
	key := fKey(s.f) | uint64(510-d)<<23
	if d >= 0 && d < 510 {
		key |= uint64(MaxCost-min(max(s.g, 0), MaxCost)) >> 6
	}
	return key
}

// focalKey packs FocalLess within one depth, the order of a FocalQueue
// bucket: f, then the top 32 bits of the signature.
//
//icpp98:hotpath
func focalKey(s *State) uint64 { return fKey(s.f) | s.sig>>32 }

// openHeap is a binary min-heap of entries ordered by key, equal keys by
// the full state comparison: FocalLess for FocalQueue buckets, else Less.
// That is exactly the order Less (or FocalLess) gives the states. The
// sifts move a hole instead of swapping, and pop picks the smaller child
// before comparing it with the moved entry; under a strict weak order
// both choose the same child heapx.Heap's sifts do, so the heap pops
// states in the order a heapx.Heap of *State under that comparison
// would, ties included.
type openHeap struct {
	items []openEntry
	focal bool
}

// less orders two entries.
//
//icpp98:hotpath
func (h *openHeap) less(a, b *openEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if h.focal {
		return FocalLess(a.s, b.s)
	}
	return Less(a.s, b.s)
}

// openMinSize is the first array a heap takes (a power of two).
const openMinSize = 64

// push inserts e.
//
//icpp98:hotpath
func (h *openHeap) push(e openEntry) {
	if len(h.items) == cap(h.items) {
		h.grow() //icpp98:allow hotpath doubling growth through the entry pools; amortized O(1) per push
	}
	h.items = h.items[:len(h.items)+1]
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(&e, &h.items[p]) {
			break
		}
		h.items[i] = h.items[p]
		i = p
	}
	h.items[i] = e
}

// pop removes and returns the minimum entry's state. The heap must not be
// empty.
//
//icpp98:hotpath
func (h *openHeap) pop() *State {
	top := h.items[0].s
	last := len(h.items) - 1
	e := h.items[last]
	h.items[last] = openEntry{} // drop the state pointer for the collector
	h.items = h.items[:last]
	if last == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && h.less(&h.items[r], &h.items[c]) {
			c = r
		}
		if !h.less(&h.items[c], &e) {
			break
		}
		h.items[i] = h.items[c]
		i = c
	}
	h.items[i] = e
	return top
}

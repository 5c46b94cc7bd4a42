package core

import "math/bits"

// MaskWords is the number of 64-bit words in a Mask. MaxNodes follows from
// it: widening the engine to bigger task graphs is a one-constant change
// (every mask operation below is word-count generic).
const MaskWords = 4

// MaxNodes is the largest task graph the engines accept: the scheduled-set
// bitset of a bnb search state holds one bit per node (core.State keeps no
// bitset; the expander derives the set from the parent chain). The paper's
// evaluation tops out at v = 32; the multi-word mask carries the same
// search to v = 64 * MaskWords.
const MaxNodes = MaskWords * 64

// Mask is a scheduled-node set: bit n is set iff node n is scheduled. It
// is a fixed-size array, so masks are comparable with == (bnb's duplicate
// check relies on that) and copy by value with no allocation.
type Mask [MaskWords]uint64

// Set sets bit n.
//
//icpp98:hotpath
func (m *Mask) Set(n int32) { m[n>>6] |= 1 << uint(n&63) }

// Has reports whether bit n is set.
//
//icpp98:hotpath
func (m *Mask) Has(n int32) bool { return m[n>>6]&(1<<uint(n&63)) != 0 }

// With returns a copy of m with bit n set.
//
//icpp98:hotpath
func (m Mask) With(n int32) Mask {
	m[n>>6] |= 1 << uint(n&63)
	return m
}

// Count returns the number of set bits.
//
//icpp98:hotpath
func (m Mask) Count() int {
	c := 0
	for _, w := range m {
		c += bits.OnesCount64(w)
	}
	return c
}

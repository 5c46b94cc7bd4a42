package heapx

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func intHeap() *Heap[int] {
	return New(func(a, b int) bool { return a < b })
}

func TestBasicOrder(t *testing.T) {
	h := intHeap()
	for _, x := range []int{5, 3, 8, 1, 9, 2, 7} {
		h.Push(x)
	}
	want := []int{1, 2, 3, 5, 7, 8, 9}
	for i, w := range want {
		if h.Peek() != w {
			t.Fatalf("peek %d: got %d, want %d", i, h.Peek(), w)
		}
		if got := h.Pop(); got != w {
			t.Fatalf("pop %d: got %d, want %d", i, got, w)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("heap not empty: %d", h.Len())
	}
}

// TestHeapSortProperty: pushing any slice and popping everything yields the
// sorted slice.
func TestHeapSortProperty(t *testing.T) {
	f := func(xs []int) bool {
		h := intHeap()
		for _, x := range xs {
			h.Push(x)
		}
		var got []int
		for h.Len() > 0 {
			got = append(got, h.Pop())
		}
		want := append([]int(nil), xs...)
		sort.Ints(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestInterleavedOps: random push/pop interleavings preserve the heap
// invariant (pop always returns the current minimum).
func TestInterleavedOps(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	h := intHeap()
	var mirror []int
	for op := 0; op < 5000; op++ {
		if h.Len() == 0 || rng.IntN(3) > 0 {
			x := int(rng.Int64N(1000))
			h.Push(x)
			mirror = append(mirror, x)
		} else {
			got := h.Pop()
			mi := 0
			for i, m := range mirror {
				if m < mirror[mi] {
					mi = i
				}
			}
			if got != mirror[mi] {
				t.Fatalf("op %d: pop %d, want %d", op, got, mirror[mi])
			}
			mirror = append(mirror[:mi], mirror[mi+1:]...)
		}
	}
}

// TestStructOrdering exercises a non-primitive element type with a composite
// ordering, mirroring how the engines order states.
func TestStructOrdering(t *testing.T) {
	type state struct{ f, g int }
	h := New(func(a, b state) bool {
		if a.f != b.f {
			return a.f < b.f
		}
		return a.g > b.g
	})
	h.Push(state{3, 1})
	h.Push(state{3, 9})
	h.Push(state{1, 0})
	if got := h.Pop(); got.f != 1 {
		t.Fatalf("pop = %+v", got)
	}
	if got := h.Pop(); got.g != 9 {
		t.Fatalf("tie-break failed: %+v", got)
	}
}

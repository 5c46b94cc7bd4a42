// Package heapx provides a small generic binary min-heap: the bnb engine's
// OPEN list and the list scheduler's ready list. It is a plain slice-based
// heap (no container/heap interface indirection) because heap operations sit
// on the hot path of every state expansion. The A* engines' OPEN lists use
// core's keyed heap instead.
package heapx

// Heap is a binary min-heap ordered by the less function supplied at
// construction.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// New returns an empty heap with the given ordering.
func New[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// NewWithCapacity returns an empty heap with preallocated storage.
func NewWithCapacity[T any](less func(a, b T) bool, capacity int) *Heap[T] {
	return &Heap[T]{less: less, items: make([]T, 0, capacity)}
}

// Len returns the number of elements.
//
//icpp98:hotpath
func (h *Heap[T]) Len() int { return len(h.items) }

// Push inserts an element.
//
//icpp98:hotpath
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// Peek returns the minimum element without removing it. It panics on an
// empty heap; check Len first.
//
//icpp98:hotpath
func (h *Heap[T]) Peek() T { return h.items[0] }

// Pop removes and returns the minimum element. It panics on an empty heap.
//
//icpp98:hotpath
func (h *Heap[T]) Pop() T {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero // release reference for GC
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

//icpp98:hotpath
func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

//icpp98:hotpath
func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < n && h.less(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

package core

import (
	"repro/internal/heapx"
)

// Queue is the OPEN-list abstraction shared by the serial and parallel
// engines. Implementations hold only incomplete states (goals are captured
// by the engines as incumbents at generation time).
type Queue interface {
	// Push inserts a state.
	Push(*State)
	// Pop removes and returns the next state to expand per the queue's
	// policy, or nil when empty.
	Pop() *State
	// MinF returns the minimum f over the queued states; ok is false when
	// empty. Termination proofs (optimality / ε-admissibility) compare the
	// incumbent against this value.
	MinF() (int32, bool)
	// Len returns the number of queued states.
	Len() int
}

// BestFirstQueue is the exact A* OPEN list: Pop returns the minimum-f state
// (ties prefer deeper states).
type BestFirstQueue struct {
	h *heapx.Heap[*State]
}

// NewBestFirstQueue returns an empty best-first queue.
func NewBestFirstQueue() *BestFirstQueue {
	return &BestFirstQueue{h: heapx.NewWithCapacity(Less, 1024)}
}

// Push inserts a state.
func (q *BestFirstQueue) Push(s *State) { q.h.Push(s) }

// Pop removes and returns the minimum-f state, or nil when empty.
func (q *BestFirstQueue) Pop() *State {
	if q.h.Len() == 0 {
		return nil
	}
	return q.h.Pop()
}

// MinF returns the minimum f over queued states.
func (q *BestFirstQueue) MinF() (int32, bool) {
	if q.h.Len() == 0 {
		return 0, false
	}
	return q.h.Peek().f, true
}

// Len returns the number of queued states.
func (q *BestFirstQueue) Len() int { return q.h.Len() }

// FocalQueue is the Aε* OPEN list of §3.4. FOCAL holds the states with
// f(s') <= (1+ε)·min f(OPEN); Pop returns the FOCAL state preferred by the
// secondary heuristic (deepest partial schedule, then smallest f, then sig:
// FocalLess).
//
// The queue keeps one heap per depth, each ordered by FocalLess, which
// within one depth is the order by f. A bucket's top is therefore its
// minimum f: MinF is the smallest top, and the deepest bucket whose top is
// within the bound holds the FocalLess-minimum of FOCAL, so Pop scans the
// tops from the deepest bucket down. Nothing is deleted lazily, so a
// pointer re-pushed after being popped (the parallel engine's load sharing
// does this) is simply queued again.
type FocalQueue struct {
	eps     float64
	buckets []heapx.Heap[*State] // indexed by depth
	n       int
}

// NewFocalQueue returns an empty FOCAL queue with the given ε.
func NewFocalQueue(eps float64) *FocalQueue {
	return &FocalQueue{eps: eps}
}

// Push inserts a state.
func (q *FocalQueue) Push(s *State) {
	for len(q.buckets) <= int(s.depth) {
		q.buckets = append(q.buckets, *heapx.New(FocalLess))
	}
	q.buckets[s.depth].Push(s)
	q.n++
}

// MinF returns the minimum f over queued states.
func (q *FocalQueue) MinF() (int32, bool) {
	if q.n == 0 {
		return 0, false
	}
	fmin := int32(1<<31 - 1)
	for i := range q.buckets {
		if b := &q.buckets[i]; b.Len() > 0 && b.Peek().f < fmin {
			fmin = b.Peek().f
		}
	}
	return fmin, true
}

// Pop returns the deepest state within the FOCAL bound, or nil when empty.
func (q *FocalQueue) Pop() *State {
	fmin, ok := q.MinF()
	if !ok {
		return nil
	}
	bound := float64(fmin) * (1 + q.eps)
	for d := len(q.buckets) - 1; ; d-- {
		// The bucket holding the min-f state qualifies, so the scan stops.
		if b := &q.buckets[d]; b.Len() > 0 && float64(b.Peek().f) <= bound {
			q.n--
			return b.Pop()
		}
	}
}

// Len returns the number of queued states.
func (q *FocalQueue) Len() int { return q.n }

var (
	_ Queue = (*BestFirstQueue)(nil)
	_ Queue = (*FocalQueue)(nil)
)

// NewQueue returns the OPEN list matching opt: a FocalQueue when
// opt.Epsilon > 0, else a BestFirstQueue.
func NewQueue(opt Options) Queue {
	if opt.Epsilon > 0 {
		return NewFocalQueue(opt.Epsilon)
	}
	return NewBestFirstQueue()
}

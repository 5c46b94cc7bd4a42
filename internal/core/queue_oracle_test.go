package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/heapx"
)

// refFocalQueue is the earlier FocalQueue, kept as the oracle the per-depth
// buckets must reproduce: three lazy heaps — pending (by f, not yet
// admitted), focal (by FocalLess) and all (by f, tracking min f) — with a
// counted multiset of popped pointers so that a pointer re-pushed after a
// pop is neither lost nor left behind as a ghost deflating MinF.
type refFocalQueue struct {
	eps     float64
	pending *heapx.Heap[*State]
	focal   *heapx.Heap[*State]
	all     *heapx.Heap[*State]
	removed map[*State]int // pops not yet purged from all, per pointer
}

func newRefFocalQueue(eps float64) *refFocalQueue {
	return &refFocalQueue{
		eps:     eps,
		pending: heapx.New(Less),
		focal:   heapx.New(FocalLess),
		all:     heapx.New(func(a, b *State) bool { return a.f < b.f }),
		removed: map[*State]int{},
	}
}

func (q *refFocalQueue) Push(s *State) {
	q.pending.Push(s)
	q.all.Push(s)
}

func (q *refFocalQueue) MinF() (int32, bool) {
	for q.all.Len() > 0 && q.removed[q.all.Peek()] > 0 {
		q.removed[q.all.Pop()]--
	}
	if q.all.Len() == 0 {
		return 0, false
	}
	return q.all.Peek().f, true
}

func (q *refFocalQueue) Pop() *State {
	for {
		fmin, ok := q.MinF()
		if !ok {
			return nil
		}
		bound := float64(fmin) * (1 + q.eps)
		for q.pending.Len() > 0 && float64(q.pending.Peek().f) <= bound {
			q.focal.Push(q.pending.Pop())
		}
		for q.focal.Len() > 0 {
			s := q.focal.Pop()
			if float64(s.f) > bound {
				// Admitted under a larger bound that has since shrunk.
				q.pending.Push(s)
				continue
			}
			q.removed[s]++
			return s
		}
	}
}

func (q *refFocalQueue) Len() int { return q.pending.Len() + q.focal.Len() }

// TestFocalQueueMatchesReference drives FocalQueue and the three-heap
// reference through the same random push/pop sequences and requires the
// same MinF, the same popped (f, depth, sig) and the same Len at every
// step. The sequences re-push popped pointers (the parallel engine's load
// sharing) and draw keys from small ranges, so equal (f, depth) pairs and
// whole duplicate keys are common.
func TestFocalQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, eps := range []float64{0, 0.1, 0.2, 0.5} {
		for seq := 0; seq < 50; seq++ {
			name := fmt.Sprintf("eps=%g seq=%d", eps, seq)
			q, ref := NewFocalQueue(eps), newRefFocalQueue(eps)
			var popped []*State
			for op := 0; op < 3000; op++ {
				switch r := rng.Intn(10); {
				case r < 5:
					s := &State{
						f:     int32(10 + rng.Intn(40)),
						depth: int32(rng.Intn(12)),
						sig:   uint64(rng.Intn(8)),
					}
					q.Push(s)
					ref.Push(s)
				case r < 6 && len(popped) > 0:
					s := popped[rng.Intn(len(popped))]
					q.Push(s)
					ref.Push(s)
				default:
					got, want := q.Pop(), ref.Pop()
					if (got == nil) != (want == nil) {
						t.Fatalf("%s op %d: Pop = %v, reference %v", name, op, got, want)
					}
					if got != nil {
						if got.f != want.f || got.depth != want.depth || got.sig != want.sig {
							t.Fatalf("%s op %d: popped (f %d, depth %d, sig %d), reference (f %d, depth %d, sig %d)",
								name, op, got.f, got.depth, got.sig, want.f, want.depth, want.sig)
						}
						popped = append(popped, got)
					}
				}
				gf, gok := q.MinF()
				wf, wok := ref.MinF()
				if gf != wf || gok != wok {
					t.Fatalf("%s op %d: MinF = %d,%v, reference %d,%v", name, op, gf, gok, wf, wok)
				}
				if q.Len() != ref.Len() {
					t.Fatalf("%s op %d: Len = %d, reference %d", name, op, q.Len(), ref.Len())
				}
			}
		}
	}
}

// TestOpenHeapMatchesHeapx drives the keyed OPEN heap and a heapx.Heap of
// the same states through one random push/pop sequence per order, Less
// (the exact queue) and FocalLess within one depth (a FocalQueue bucket),
// and requires the same state pointer from every pop. The states are drawn
// to collide: negative f, negative depths and depths past the key's cap, g values that
// differ below the key's resolution or fall outside [0, MaxCost], and
// depths outside [0, 509], signatures equal in their top 32 bits or altogether, so equal keys (the
// fallback to the full comparison) and fully tied states are common. Some
// pushes re-push a popped pointer, as the parallel engine's load sharing
// does.
func TestOpenHeapMatchesHeapx(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	gs := []int32{-7, 0, 1, 63, 64, 65, 1000, MaxCost - 1, MaxCost, MaxCost + 9}
	randState := func(focal bool) *State {
		s := &State{
			f:   int32(rng.Intn(9)) - 4,
			g:   gs[rng.Intn(len(gs))],
			sig: uint64(rng.Intn(3))<<32 | uint64(rng.Intn(3)),
		}
		if rng.Intn(4) == 0 {
			s.f *= 1 << 28
		}
		if !focal {
			s.depth = []int32{-3, -1, 0, 1, 2, 508, 509, 510, 511, 900}[rng.Intn(10)]
		}
		return s
	}
	for _, focal := range []bool{false, true} {
		less := Less
		if focal {
			less = FocalLess
		}
		for seq := 0; seq < 40; seq++ {
			h := &openHeap{focal: focal}
			ref := heapx.New(less)
			var popped []*State
			for op := 0; op < 2000; op++ {
				if r := rng.Intn(10); r < 6 || len(h.items) == 0 {
					s := randState(focal)
					if r == 0 && len(popped) > 0 {
						s = popped[rng.Intn(len(popped))]
					}
					key := exactKey(s)
					if focal {
						key = focalKey(s)
					}
					h.push(openEntry{key: key, s: s})
					ref.Push(s)
					continue
				}
				if got := h.items[0].f(); got != ref.Peek().f {
					t.Fatalf("focal=%v seq %d op %d: top f %d, reference %d", focal, seq, op, got, ref.Peek().f)
				}
				got, want := h.pop(), ref.Pop()
				if got != want {
					t.Fatalf("focal=%v seq %d op %d: popped %+v, reference %+v", focal, seq, op, *got, *want)
				}
				popped = append(popped, got)
			}
			if len(h.items) != ref.Len() {
				t.Fatalf("focal=%v seq %d: %d entries left, reference %d", focal, seq, len(h.items), ref.Len())
			}
		}
	}
}

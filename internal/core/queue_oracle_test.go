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

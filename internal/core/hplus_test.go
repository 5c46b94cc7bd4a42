package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/procgraph"
)

// scheduledSet derives s's scheduled-node set from its parent chain,
// independently of the expander's scratch.
func scheduledSet(s *State) Mask {
	var set Mask
	for q := s; q.node >= 0; q = q.parent {
		set.Set(q.node)
	}
	return set
}

// referenceHPlus is hPlus written out as its definition: it walks every
// scheduled node of the parent s (via its parent chain, independently of the
// expander's scratch) and every successor not scheduled in the child. O(e)
// per child; the oracle the expander's O(1)-per-child form must reproduce
// exactly.
func referenceHPlus(m *Model, s *State, n, ft, g, h int32) int32 {
	if lb := m.staticLB - g; lb > h {
		h = lb
	}
	childMask := scheduledSet(s).With(n)
	for _, a := range m.G.Succ(n) {
		if childMask.Has(a.Node) {
			continue
		}
		if hb := ft + m.slMin[a.Node] - g; hb > h {
			h = hb
		}
	}
	for q := s; q.node >= 0; q = q.parent {
		for _, a := range m.G.Succ(q.node) {
			if childMask.Has(a.Node) {
				continue
			}
			if hb := q.finish + m.slMin[a.Node] - g; hb > h {
				h = hb
			}
		}
	}
	return h
}

// referenceCriticalPath is the HLoad critical-path term as first defined:
// the largest communication-aware earliest start plus sl_min over the
// nodes ready in s, skipping the node n the child schedules. It derives
// the ready set from s's parent chain rather than the expander's scratch,
// which the fixed-task-order collapse may already have truncated; nodes
// the equivalence prunings skip share their representative's bound, so
// the maximum is the same.
func referenceCriticalPath(e *Expander, s *State, n int32) int32 {
	m := e.M
	scheduled := scheduledSet(s)
	var cp int32
	for u := int32(0); int(u) < m.V; u++ {
		if u == n || scheduled.Has(u) {
			continue
		}
		ready := true
		for _, a := range m.G.Pred(u) {
			ready = ready && scheduled.Has(a.Node)
		}
		if !ready {
			continue
		}
		var lbStart int32
		if len(m.G.Pred(u)) > 0 {
			lbStart = int32(1<<31 - 1)
			for pe := 0; pe < m.P; pe++ {
				var arr int32
				for _, a := range m.G.Pred(u) {
					arr = max(arr, e.finishOf[a.Node]+m.Sys.CommCost(a.Cost, int(e.procOf[a.Node]), pe))
				}
				lbStart = min(lbStart, arr)
			}
		}
		cp = max(cp, lbStart+m.slMin[u])
	}
	return cp
}

// referenceChildH recomputes the h the expander should have given child c of
// s: the paper's incremental h, the reference hPlus scan, and (for HLoad)
// the load-balance term from the expander's per-state scratch, which is
// live while Expand emits s's children, and the reference critical-path
// term.
func referenceChildH(e *Expander, s, c *State) int32 {
	m := e.M
	n, ft, g := c.node, c.finish, c.g
	var h int32
	switch {
	case ft > s.g:
		h = m.maxSlSucc[n]
	case ft == s.g:
		h = max(s.h, m.maxSlSucc[n])
	default:
		h = s.h
	}
	if e.HFunc != HPaper {
		h = referenceHPlus(m, s, n, ft, g, h)
	}
	if e.HFunc == HLoad {
		sum := e.sumRT - int64(e.rt[c.proc]) + int64(ft)
		rem := e.remMin - int64(m.wMin[n])
		if lb := int32((sum + rem + int64(m.P) - 1) / int64(m.P)); lb-g > h {
			h = lb - g
		}
		if cp := referenceCriticalPath(e, s, n); cp-g > h {
			h = cp - g
		}
	}
	return h
}

// TestHPlusMatchesReference walks random expansion paths on §4.1 random
// graphs and checks every emitted child's h against the per-child
// reference scan, under both heuristic tiers that use hPlus. Paths
// alternate between the full pruning set and none, so expansions with many
// siblings are covered.
func TestHPlusMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1998))
	systems := []*procgraph.System{
		procgraph.Complete(3),
		procgraph.Ring(4),
		procgraph.CompleteWith(3, procgraph.Config{Speeds: []float64{1, 2, 0.5}}),
	}
	checked := 0
	for _, v := range []int{10, 12, 14} {
		for _, ccr := range []float64{0.1, 1, 10} {
			for seed := uint64(1); seed <= 3; seed++ {
				g := gen.MustRandom(gen.RandomConfig{V: v, CCR: ccr, Seed: seed})
				for _, sys := range systems {
					m, err := NewModel(g, sys)
					if err != nil {
						t.Fatal(err)
					}
					for _, hf := range []HFunc{HPlus, HLoad} {
						for path := 0; path < 4; path++ {
							opt := Options{HFunc: hf}
							if path%2 == 1 {
								opt.Disable = DisableAllPruning
							}
							name := fmt.Sprintf("v=%d ccr=%g seed=%d %s h=%d path=%d", v, ccr, seed, sys.Name(), hf, path)
							checked += walkCheckingH(t, name, m, opt, rng)
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no children checked")
	}
}

// walkCheckingH follows one random root-to-goal path, checking every child
// emitted along the way, and returns how many it checked.
func walkCheckingH(t *testing.T, name string, m *Model, opt Options, rng *rand.Rand) int {
	t.Helper()
	var stats Stats
	exp := m.NewExpander(opt, &stats)
	var children []*State
	checked := 0
	s := Root()
	for !s.Complete(m) {
		children = children[:0]
		exp.Expand(s, nil, func(c *State) {
			if want := referenceChildH(exp, s, c); c.h != want {
				t.Errorf("%s: depth %d child (node %d, PE %d): h=%d, reference %d",
					name, s.depth, c.node, c.proc, c.h, want)
			}
			if c.f != c.g+c.h {
				t.Errorf("%s: child f=%d != g+h=%d", name, c.f, c.g+c.h)
			}
			children = append(children, c)
			checked++
		})
		if len(children) == 0 {
			t.Fatalf("%s: no children at depth %d", name, s.depth)
		}
		s = children[rng.Intn(len(children))]
	}
	return checked
}

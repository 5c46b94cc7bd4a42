package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/procgraph"
	"repro/internal/taskgraph"
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

// placement returns the state of s's parent chain that scheduled node n.
func placement(s *State, n int32) *State {
	for q := s; q.node >= 0; q = q.parent {
		if q.node == n {
			return q
		}
	}
	panic(fmt.Sprintf("node %d is not scheduled", n))
}

// referenceStart is the start time the expansion operator of §3.1 gives
// ready node n on PE pe, derived from s's parent chain: the later of pe's
// ready time and the arrival of n's last parent message, every parent paying
// its CommCost to pe. It scans all parents on pe itself, independently of
// the expander's per-expansion arrival rows and of which PEs the
// isomorphism filter kept.
func referenceStart(m *Model, s *State, n, pe int32) int32 {
	var st int32
	for q := s; q.node >= 0; q = q.parent {
		if q.proc == pe {
			st = max(st, q.finish)
		}
	}
	for _, a := range m.G.Pred(n) {
		q := placement(s, a.Node)
		st = max(st, q.finish+m.Sys.CommCost(a.Cost, int(q.proc), int(pe)))
	}
	return st
}

// referenceCriticalPath is the HLoad critical-path term as first defined:
// the largest communication-aware earliest start plus sl_min over the
// nodes ready in s, skipping the node n the child schedules, with each
// earliest start a minimum over all P PEs. It derives the placements and
// the ready set from s's parent chain rather than the expander's scratch,
// which the fixed-task-order collapse may already have truncated; nodes
// the equivalence prunings skip share their representative's bound, so
// the maximum is the same.
func referenceCriticalPath(m *Model, s *State, n int32) int32 {
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
					q := placement(s, a.Node)
					arr = max(arr, q.finish+m.Sys.CommCost(a.Cost, int(q.proc), pe))
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
		if cp := referenceCriticalPath(m, s, n); cp-g > h {
			h = cp - g
		}
	}
	return h
}

// TestHPlusMatchesReference walks random expansion paths on §4.1 random
// graphs and checks every emitted child's start, finish and h against
// per-child reference scans, under every heuristic tier. Paths rotate
// between the full pruning set, none, and all but the isomorphism pruning,
// so expansions with many siblings are covered. The systems include ones
// where the expander's restriction to the PEs the isomorphism filter keeps
// matters: complete:12 (P >= V for most graphs, as in the benchmark's
// workloads), hop-scaled mesh and hypercube, and heterogeneous speeds with
// interchangeable pairs. A fork-join graph whose middle tasks differ makes
// the fixed-task-order collapse pick a node other than the first in branch
// order.
func TestHPlusMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1998))
	systems := []*procgraph.System{
		procgraph.Complete(3),
		procgraph.Ring(4),
		procgraph.CompleteWith(3, procgraph.Config{Speeds: []float64{1, 2, 0.5}}),
		procgraph.Complete(12),
		procgraph.Mesh(3, 3),
		procgraph.Hypercube(3),
		procgraph.CompleteWith(6, procgraph.Config{Speeds: []float64{1, 1, 2, 2, 0.5, 0.5}}),
	}
	type instance struct {
		name string
		g    *taskgraph.Graph
	}
	var insts []instance
	for _, v := range []int{10, 12, 14} {
		for _, ccr := range []float64{0.1, 1, 10} {
			for seed := uint64(1); seed <= 3; seed++ {
				insts = append(insts, instance{fmt.Sprintf("v=%d ccr=%g seed=%d", v, ccr, seed),
					gen.MustRandom(gen.RandomConfig{V: v, CCR: ccr, Seed: seed})})
			}
		}
	}
	insts = append(insts, instance{"fork-join", ftoForkJoin()})
	paths := []Disable{0, DisableAllPruning, DisableIsomorphism}
	checked := 0
	for _, in := range insts {
		for _, sys := range systems {
			m, err := NewModel(in.g, sys)
			if err != nil {
				t.Fatal(err)
			}
			for _, hf := range []HFunc{HPaper, HPlus, HLoad} {
				for path := 0; path < 2*len(paths); path++ {
					opt := Options{HFunc: hf, Disable: paths[path%len(paths)]}
					name := fmt.Sprintf("%s %s h=%d path=%d", in.name, sys.Name(), hf, path)
					checked += walkCheckingH(t, name, m, opt, rng)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no children checked")
	}
}

// ftoForkJoin is a root forking into five middle tasks that join into one
// sink. In-edge costs rise and out-edge costs fall with the middle task's
// index, so the fixed-task-order collapse fires on every ready set of
// middle tasks and keeps the lowest-indexed one; weights also rise with the
// index, so branch order puts that task last and the collapse must carry
// its arrival row from the end of the ready set.
func ftoForkJoin() *taskgraph.Graph {
	b := taskgraph.NewBuilder("fto-fork-join")
	root := b.AddNode(3)
	sink := b.AddNode(2)
	for i := int32(0); i < 5; i++ {
		mid := b.AddNode(2 + 3*i)
		b.AddEdge(root, mid, 1+2*i)
		b.AddEdge(mid, sink, 12-2*i)
	}
	return b.MustBuild()
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
			if st := referenceStart(m, s, c.node, c.proc); c.start != st || c.finish != st+m.exec[c.node][c.proc] {
				t.Errorf("%s: depth %d child (node %d, PE %d): start=%d finish=%d, reference %d and %d",
					name, s.depth, c.node, c.proc, c.start, c.finish, st, st+m.exec[c.node][c.proc])
			}
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

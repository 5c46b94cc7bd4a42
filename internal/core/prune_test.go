package core

import (
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/gen"
	"repro/internal/procgraph"
	"repro/internal/taskgraph"
)

// pairEquivalent is the brute-force Definition 3 oracle: two nodes are
// equivalent iff they have the same weight and identical predecessor and
// successor sets with pairwise-equal edge costs.
func pairEquivalent(g *taskgraph.Graph, a, b int32) bool {
	if g.Weight(a) != g.Weight(b) {
		return false
	}
	sameAdj := func(x, y []taskgraph.Adj) bool {
		if len(x) != len(y) {
			return false
		}
		mx := map[int32]int32{}
		for _, e := range x {
			mx[e.Node] = e.Cost
		}
		for _, e := range y {
			if c, ok := mx[e.Node]; !ok || c != e.Cost {
				return false
			}
		}
		return true
	}
	return sameAdj(g.Pred(a), g.Pred(b)) && sameAdj(g.Succ(a), g.Succ(b))
}

// TestEquivalenceClassOracle checks eqRep/eqPrev against the pairwise
// brute-force oracle on random graphs plus a fork of identical siblings
// (which guarantees non-trivial classes).
func TestEquivalenceClassOracle(t *testing.T) {
	graphs := []*taskgraph.Graph{}
	for seed := uint64(0); seed < 8; seed++ {
		graphs = append(graphs, gen.MustRandom(gen.RandomConfig{V: 12, CCR: 1.0, Seed: seed + 70}))
	}
	bld := taskgraph.NewBuilder("fork")
	root := bld.AddNode(5)
	sink := bld.AddNode(5)
	for i := 0; i < 5; i++ {
		mid := bld.AddNode(7)
		bld.AddEdge(root, mid, 3)
		bld.AddEdge(mid, sink, 3)
	}
	graphs = append(graphs, bld.MustBuild())

	anyClass := false
	for _, g := range graphs {
		m, err := NewModel(g, procgraph.Complete(2))
		if err != nil {
			t.Fatal(err)
		}
		v := int32(g.NumNodes())
		for a := int32(0); a < v; a++ {
			// The representative must be the lowest-id member of the class.
			if r := m.EquivalenceRep(a); r > a || !pairEquivalent(g, a, r) {
				t.Fatalf("%s: node %d has invalid representative %d", g.Name(), a, r)
			}
			for b := a + 1; b < v; b++ {
				want := pairEquivalent(g, a, b)
				got := m.EquivalenceRep(a) == m.EquivalenceRep(b)
				if want != got {
					t.Fatalf("%s: nodes %d,%d: oracle says equivalent=%v, eqRep says %v",
						g.Name(), a, b, want, got)
				}
				if want {
					anyClass = true
				}
			}
			// eqPrev must be the largest same-class id below a, or -1.
			wantPrev := int32(-1)
			for b := a - 1; b >= 0; b-- {
				if pairEquivalent(g, a, b) {
					wantPrev = b
					break
				}
			}
			if got := m.EquivalencePrev(a); got != wantPrev {
				t.Fatalf("%s: node %d: eqPrev = %d, want %d", g.Name(), a, got, wantPrev)
			}
		}
	}
	if !anyClass {
		t.Fatal("no non-trivial equivalence class in the whole suite")
	}
}

// TestFTOEligibility pins the classic-model gate: homogeneous systems whose
// PE pairs are all one hop apart qualify; larger-diameter or heterogeneous
// systems do not.
func TestFTOEligibility(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 6, CCR: 1.0, Seed: 1})
	cases := []struct {
		sys  *procgraph.System
		want bool
	}{
		{procgraph.Complete(2), true},
		{procgraph.Complete(4), true},
		{procgraph.Ring(3), true},  // diameter 1
		{procgraph.Ring(4), false}, // diameter 2
		{procgraph.Star(3), false}, // leaf-to-leaf is 2 hops
		{procgraph.CompleteWith(3, procgraph.Config{Speeds: []float64{1, 1, 2}}), false},
	}
	for _, c := range cases {
		m, err := NewModel(g, c.sys)
		if err != nil {
			t.Fatal(err)
		}
		if m.FTOEligible() != c.want {
			t.Errorf("%s: FTOEligible = %v, want %v", c.sys.Name(), m.FTOEligible(), c.want)
		}
	}
}

// TestFTOCollapsePreservesOptimum is the FTO property test: on random small
// instances and on join graphs (which always satisfy the fixed-order
// condition at the root), the collapsed search must return the same optimum
// as the fully branched search and as exhaustive enumeration.
func TestFTOCollapsePreservesOptimum(t *testing.T) {
	type inst struct {
		g   *taskgraph.Graph
		sys *procgraph.System
	}
	var insts []inst
	for seed := uint64(0); seed < 6; seed++ {
		insts = append(insts, inst{
			gen.MustRandom(gen.RandomConfig{V: 8, CCR: 1.0, Seed: seed + 300}),
			procgraph.Complete(3),
		})
	}
	// Chains of fork-joins: every layer's ready set has one parent, one
	// shared child, equal out-comm — the canonical FTO shape.
	for _, w := range []int{3, 4} {
		fj, err := gen.ForkJoin(w, 2, 9, 4)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst{fj, procgraph.Complete(2)})
	}
	// A join with distinct weights and comm costs, so the forced order is
	// non-trivial (sorted by descending out-comm).
	bld := taskgraph.NewBuilder("join")
	sink := bld.AddNode(3)
	for i := 0; i < 5; i++ {
		src := bld.AddNode(int32(4 + 2*i))
		bld.AddEdge(src, sink, int32(9-i))
	}
	insts = append(insts, inst{bld.MustBuild(), procgraph.Complete(3)})
	// Ready tasks whose parents sit on different PEs: each can start on its
	// parent's PE without waiting for communication, so ordering them by
	// remote data-ready time (n2 before n5) loses the optimum 7, which
	// starts n5 first, locally after n3. The collapse must not fire here.
	split := taskgraph.NewBuilder("split-parents")
	for _, w := range []int32{2, 7, 1, 4, 5, 2} {
		split.AddNode(w)
	}
	split.AddEdge(3, 5, 2)
	split.AddEdge(4, 2, 0)
	insts = append(insts, inst{split.MustBuild(), procgraph.Complete(3)})
	// A childless ready task beside its sibling's join: n1 and n4 share
	// parent n0, only n4 feeds n2. Ordering them by remote data-ready time
	// (n1 before n4) loses the optimum 30, which runs n4 then n1 on n0's PE
	// so that n2 starts at 20 elsewhere. The collapse must not fire here.
	childless := taskgraph.NewBuilder("childless-sibling")
	for _, w := range []int32{10, 1, 10, 1, 10, 10} {
		childless.AddNode(w)
	}
	childless.AddEdge(0, 1, 20)
	childless.AddEdge(0, 4, 100)
	childless.AddEdge(4, 2, 0)
	insts = append(insts, inst{childless.MustBuild(), procgraph.Complete(3)})

	sawCollapse := false
	for _, in := range insts {
		on, err := Solve(in.g, in.sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		off, err := Solve(in.g, in.sys, Options{Disable: DisableFTO})
		if err != nil {
			t.Fatal(err)
		}
		if on.Length != off.Length {
			t.Fatalf("%s on %s: FTO changed the optimum: %d vs %d",
				in.g.Name(), in.sys.Name(), on.Length, off.Length)
		}
		want, err := bruteforce.Solve(in.g, in.sys)
		if err != nil {
			t.Fatal(err)
		}
		if on.Length != want.Length {
			t.Fatalf("%s on %s: FTO optimum %d != brute-force optimum %d",
				in.g.Name(), in.sys.Name(), on.Length, want.Length)
		}
		if on.Stats.PrunedFTO > 0 {
			sawCollapse = true
		}
	}
	if !sawCollapse {
		t.Fatal("FTO collapse never fired on a suite built to trigger it")
	}
}

// exhaustiveBest returns the exact best complete-schedule length reachable
// from s, by unpruned recursion over the expansion operator itself.
func exhaustiveBest(e *Expander, s *State) int32 {
	if s.Complete(e.M) {
		return s.g
	}
	var children []*State
	e.Expand(s, nil, func(c *State) { children = append(children, c) })
	best := int32(1<<31 - 1)
	for _, c := range children {
		if b := exhaustiveBest(e, c); b < best {
			best = b
		}
	}
	return best
}

// TestHLoadAdmissiblePerState fuzzes the HLoad bound state by state: for
// every node generated in the first levels of an HLoad search, f(s) must not
// exceed the true best completion cost from s (computed by exhaustive
// unpruned recursion).
func TestHLoadAdmissiblePerState(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := gen.MustRandom(gen.RandomConfig{V: 7, CCR: 2.0, Seed: seed + 500})
		sys := procgraph.Complete(2)
		m, err := NewModel(g, sys)
		if err != nil {
			t.Fatal(err)
		}
		loaded := m.NewExpander(Options{HFunc: HLoad}, nil)
		exact := m.NewExpander(Options{Disable: DisableAllPruning}, nil)

		frontier := []*State{Root()}
		checked := 0
		for level := 0; level < 3 && len(frontier) > 0; level++ {
			var next []*State
			for _, s := range frontier {
				loaded.Expand(s, nil, func(c *State) { next = append(next, c) })
			}
			for _, c := range next {
				if checked >= 25 {
					break
				}
				if best := exhaustiveBest(exact, c); c.f > best {
					t.Fatalf("seed %d: state at depth %d has f=%d > true best completion %d",
						seed, c.depth, c.f, best)
				}
				checked++
			}
			frontier = next
		}
		if checked == 0 {
			t.Fatal("no states checked")
		}
	}
}

// TestHLoadFindsOptimum is the end-to-end admissibility check: A* under
// HLoad must still return the exact optimum (verified against exhaustive
// enumeration) on random instances up to v=10.
func TestHLoadFindsOptimum(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		v := 8 + int(seed)%3
		g := gen.MustRandom(gen.RandomConfig{V: v, CCR: 1.0, Seed: seed + 640})
		sys := procgraph.Complete(3)
		res, err := Solve(g, sys, Options{HFunc: HLoad})
		if err != nil {
			t.Fatal(err)
		}
		want, err := bruteforce.Solve(g, sys)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Optimal || res.Length != want.Length {
			t.Fatalf("seed %d v=%d: HLoad result %d (optimal=%v) != brute-force optimum %d",
				seed, v, res.Length, res.Optimal, want.Length)
		}
		// The stronger bound must never expand more states than HPlus.
		plus, err := Solve(g, sys, Options{HFunc: HPlus})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Expanded > plus.Stats.Expanded {
			t.Errorf("seed %d: HLoad expanded %d > HPlus %d", seed, res.Stats.Expanded, plus.Stats.Expanded)
		}
	}
}

// TestEquivalentTaskPruningPreservesOptimum cross-checks the equivalent-task
// fixed order against the brute-force optimum and pins that it fires on a
// graph with identical siblings.
func TestEquivalentTaskPruningPreservesOptimum(t *testing.T) {
	bld := taskgraph.NewBuilder("twins")
	root := bld.AddNode(4)
	sink := bld.AddNode(4)
	for i := 0; i < 4; i++ {
		mid := bld.AddNode(6)
		bld.AddEdge(root, mid, 5)
		bld.AddEdge(mid, sink, 5)
	}
	g := bld.MustBuild()
	sys := procgraph.Complete(3)

	// Isolate the pruning under test: node equivalence and FTO off, the
	// equivalent-task order on (and vice versa for the baseline).
	on, err := Solve(g, sys, Options{Disable: DisableEquivalence | DisableFTO})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Solve(g, sys, Options{Disable: DisableEquivalence | DisableFTO | DisableEquivalentTasks})
	if err != nil {
		t.Fatal(err)
	}
	want, err := bruteforce.Solve(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	if on.Length != want.Length || off.Length != want.Length {
		t.Fatalf("optimum mismatch: on=%d off=%d brute-force=%d", on.Length, off.Length, want.Length)
	}
	if on.Stats.PrunedEquiv == 0 {
		t.Error("equivalent-task pruning never fired on identical siblings")
	}
	if on.Stats.Expanded >= off.Stats.Expanded {
		t.Errorf("equivalent-task pruning did not shrink the tree: %d >= %d",
			on.Stats.Expanded, off.Stats.Expanded)
	}
}

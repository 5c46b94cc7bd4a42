package core

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/gen"
	"repro/internal/listsched"
	"repro/internal/procgraph"
	"repro/internal/taskgraph"
)

// TestMatchesBruteForce compares the A* optimum against exhaustive
// enumeration on a grid of small random instances — the central correctness
// property of the engine.
func TestMatchesBruteForce(t *testing.T) {
	for _, ccr := range []float64{0.1, 1.0, 10.0} {
		for v := 4; v <= 8; v++ {
			for seed := uint64(0); seed < 4; seed++ {
				g := gen.MustRandom(gen.RandomConfig{V: v, CCR: ccr, Seed: seed})
				for _, sys := range []*procgraph.System{procgraph.Complete(2), procgraph.Ring(3)} {
					want, err := bruteforce.Solve(g, sys)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Solve(g, sys, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if !got.Optimal || got.Length != want.Length {
						t.Errorf("v=%d ccr=%g seed=%d sys=%s: A*=%d (optimal=%v), brute force=%d",
							v, ccr, seed, sys.Name(), got.Length, got.Optimal, want.Length)
					}
				}
			}
		}
	}
}

// TestMatchesBruteForceQuick drives the brute-force comparison from
// testing/quick seeds, including heterogeneous systems and hop-scaled
// topologies.
func TestMatchesBruteForceQuick(t *testing.T) {
	f := func(seed uint64, hetero bool) bool {
		v := 4 + int(seed%4)
		g := gen.MustRandom(gen.RandomConfig{V: v, CCR: 1.0, Seed: seed})
		var sys *procgraph.System
		if hetero {
			sys = procgraph.CompleteWith(3, procgraph.Config{Speeds: []float64{1.0, 1.5, 0.75}})
		} else {
			sys = procgraph.Chain(3)
		}
		want, err := bruteforce.Solve(g, sys)
		if err != nil {
			return false
		}
		got, err := Solve(g, sys, Options{})
		if err != nil {
			return false
		}
		return got.Optimal && got.Length == want.Length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPruningsPreserveOptimum toggles each pruning individually on random
// instances; the proven optimum must never change.
func TestPruningsPreserveOptimum(t *testing.T) {
	disables := []Disable{
		0,
		DisableIsomorphism,
		DisableEquivalence,
		DisableUpperBound,
		DisablePriorityOrder,
		DisableAllPruning,
	}
	for seed := uint64(0); seed < 6; seed++ {
		g := gen.MustRandom(gen.RandomConfig{V: 8, CCR: 1.0, Seed: seed + 100})
		sys := procgraph.Ring(3)
		var want int32 = -1
		for _, d := range disables {
			res, err := Solve(g, sys, Options{Disable: d})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Optimal {
				t.Fatalf("seed=%d disable=%b: not optimal", seed, d)
			}
			if want < 0 {
				want = res.Length
			} else if res.Length != want {
				t.Errorf("seed=%d disable=%b: length %d != %d", seed, d, res.Length, want)
			}
		}
	}
}

// TestHPlusPreservesOptimumAndPrunesMore checks the strengthened heuristic
// finds the same optimum with no more expansions than the paper heuristic.
func TestHPlusPreservesOptimumAndPrunesMore(t *testing.T) {
	var totalPaper, totalPlus int64
	for seed := uint64(0); seed < 8; seed++ {
		g := gen.MustRandom(gen.RandomConfig{V: 8, CCR: 1.0, Seed: seed + 500})
		sys := procgraph.Complete(3)
		paper, err := Solve(g, sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		plus, err := Solve(g, sys, Options{HFunc: HPlus})
		if err != nil {
			t.Fatal(err)
		}
		if paper.Length != plus.Length || !plus.Optimal {
			t.Errorf("seed=%d: hplus length %d != paper %d", seed, plus.Length, paper.Length)
		}
		totalPaper += paper.Stats.Expanded
		totalPlus += plus.Stats.Expanded
	}
	if totalPlus > totalPaper {
		t.Errorf("HPlus expanded more states overall: %d > %d", totalPlus, totalPaper)
	}
	t.Logf("expansions: paper-h=%d hplus=%d", totalPaper, totalPlus)
}

// TestEpsilonBounds verifies Theorem 2 on random instances: the Aε* result
// never exceeds (1+ε) times the exact optimum, for several ε.
func TestEpsilonBounds(t *testing.T) {
	sys := procgraph.Complete(3)
	type inst struct {
		g     *taskgraph.Graph
		exact *Result
	}
	var insts []inst
	for seed := uint64(0); seed < 6; seed++ {
		g := gen.MustRandom(gen.RandomConfig{V: 8, CCR: 1.0, Seed: seed + 40})
		exact, err := Solve(g, sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst{g, exact})
	}
	for _, eps := range []float64{0.1, 0.2, 0.5, 1.0} {
		for seed, in := range insts {
			g, exact := in.g, in.exact
			approx, err := Solve(g, sys, Options{Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			if float64(approx.Length) > (1+eps)*float64(exact.Length)+1e-9 {
				t.Errorf("eps=%g seed=%d: approx %d > bound of optimal %d",
					eps, seed, approx.Length, exact.Length)
			}
			// An Aε* run that happens to meet the exact lower bound reports
			// the tight guarantee (Optimal, BoundFactor 1) instead of 1+ε.
			if approx.BoundFactor != 1+eps && !(approx.Optimal && approx.BoundFactor == 1) {
				t.Errorf("eps=%g: BoundFactor = %v (Optimal=%v)", eps, approx.BoundFactor, approx.Optimal)
			}
			if err := approx.Schedule.Validate(); err != nil {
				t.Errorf("eps=%g seed=%d: invalid schedule: %v", eps, seed, err)
			}
		}
	}
}

// TestEpsilonNeverSlower-ish is not guaranteed per instance, but Aε* must
// expand at most as many states as exact A* on average over a suite.
func TestEpsilonReducesWork(t *testing.T) {
	var exactTotal, approxTotal int64
	for seed := uint64(0); seed < 10; seed++ {
		g := gen.MustRandom(gen.RandomConfig{V: 8, CCR: 1.0, Seed: seed + 900})
		sys := procgraph.Complete(3)
		exact, err := Solve(g, sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		approx, err := Solve(g, sys, Options{Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		exactTotal += exact.Stats.Expanded
		approxTotal += approx.Stats.Expanded
	}
	if approxTotal > exactTotal {
		t.Errorf("Aε*(0.5) expanded more states than exact A*: %d > %d", approxTotal, exactTotal)
	}
	t.Logf("expansions: exact=%d eps0.5=%d (ratio %.2f)",
		exactTotal, approxTotal, float64(approxTotal)/float64(exactTotal))
}

// TestUpperBoundIsAchievable: U must upper-bound the
// optimum, and the optimum must never exceed it.
func TestUpperBoundIsAchievable(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := gen.MustRandom(gen.RandomConfig{V: 9, CCR: 1.0, Seed: seed})
		sys := procgraph.Complete(3)
		ub, err := listsched.UpperBound(g, sys)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(g, sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Length > ub.Length {
			t.Errorf("seed=%d: optimal %d exceeds the upper bound %d", seed, res.Length, ub.Length)
		}
		if res.Length < res.Stats.StaticLB {
			t.Errorf("seed=%d: optimal %d below static lower bound %d", seed, res.Length, res.Stats.StaticLB)
		}
	}
}

// TestCutoffBehaviour: MaxExpanded and Deadline cutoffs still return valid
// schedules flagged non-optimal.
func TestCutoffBehaviour(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 18, CCR: 1.0, Seed: 77})
	sys := procgraph.Complete(4)
	res, err := Solve(g, sys, Options{Stop: func(expanded int64) bool { return expanded >= 100 }})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		t.Error("cut-off search claims optimality")
	}
	if res.Schedule == nil {
		t.Fatal("cut-off search returned no schedule")
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(50 * time.Millisecond)
	res2, err := Solve(g, sys, Options{Stop: func(int64) bool { return time.Now().After(deadline) }})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Schedule == nil {
		t.Fatal("deadline search returned no schedule")
	}
	if err := res2.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSingleNodeAndChain covers degenerate inputs.
func TestSingleNodeAndChain(t *testing.T) {
	b := taskgraph.NewBuilder("one")
	b.AddNode(7)
	g := b.MustBuild()
	res, err := Solve(g, procgraph.Complete(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != 7 || !res.Optimal {
		t.Errorf("single node: length=%d optimal=%v", res.Length, res.Optimal)
	}

	// A pure chain with heavy communication must stay on one PE: length =
	// sum of weights.
	cb := taskgraph.NewBuilder("chain")
	prev := cb.AddNode(3)
	total := int32(3)
	for i := 0; i < 5; i++ {
		n := cb.AddNode(int32(2 + i))
		cb.AddEdge(prev, n, 1000)
		prev = n
		total += int32(2 + i)
	}
	cg := cb.MustBuild()
	res2, err := Solve(cg, procgraph.Complete(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Length != total {
		t.Errorf("heavy-comm chain: length=%d, want %d", res2.Length, total)
	}
	if res2.Schedule.ProcsUsed() != 1 {
		t.Errorf("heavy-comm chain used %d PEs, want 1", res2.Schedule.ProcsUsed())
	}
}

// TestIndependentTasks: v independent unit tasks on v complete PEs finish in
// one unit.
func TestIndependentTasks(t *testing.T) {
	b := taskgraph.NewBuilder("indep")
	for i := 0; i < 6; i++ {
		b.AddNode(1)
	}
	g := b.MustBuild()
	res, err := Solve(g, procgraph.Complete(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != 1 {
		t.Errorf("independent tasks: length=%d, want 1", res.Length)
	}
}

// TestHeterogeneousPrefersFastPE: a single chain on a system with one fast
// PE must run entirely on the fast PE.
func TestHeterogeneousPrefersFastPE(t *testing.T) {
	b := taskgraph.NewBuilder("chain")
	n0 := b.AddNode(10)
	n1 := b.AddNode(10)
	b.AddEdge(n0, n1, 1)
	g := b.MustBuild()
	sys := procgraph.CompleteWith(2, procgraph.Config{Speeds: []float64{2.0, 0.5}})
	res, err := Solve(g, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// On PE1 (speed 0.5): 5 + 5 = 10. Any use of PE0 costs 20 per task.
	if res.Length != 10 {
		t.Errorf("heterogeneous chain: length=%d, want 10", res.Length)
	}
}

// TestModelValidation covers constructor errors.
func TestModelValidation(t *testing.T) {
	b := taskgraph.NewBuilder("big")
	for i := 0; i < MaxNodes+1; i++ {
		b.AddNode(1)
	}
	g := b.MustBuild()
	if _, err := NewModel(g, procgraph.Complete(2)); err == nil {
		t.Errorf("expected error for v > %d", MaxNodes)
	}
}

// TestEquivalenceClasses checks Definition 3 on the paper example (n2 ≡ n3)
// and a counterexample with differing edge costs.
func TestEquivalenceClasses(t *testing.T) {
	g := gen.PaperExample()
	m, err := NewModel(g, procgraph.Ring(3))
	if err != nil {
		t.Fatal(err)
	}
	if m.EquivalenceRep(2) != 1 {
		t.Errorf("n3 should be equivalent to n2; rep = %d", m.EquivalenceRep(2))
	}
	if m.EquivalenceRep(1) != 1 || m.EquivalenceRep(3) != 3 {
		t.Errorf("unexpected reps: n2->%d n4->%d", m.EquivalenceRep(1), m.EquivalenceRep(3))
	}

	// Same shape but different edge cost: not equivalent.
	b := taskgraph.NewBuilder("uneq")
	a := b.AddNode(2)
	x := b.AddNode(3)
	y := b.AddNode(3)
	z := b.AddNode(1)
	b.AddEdge(a, x, 1)
	b.AddEdge(a, y, 2) // differs
	b.AddEdge(x, z, 1)
	b.AddEdge(y, z, 1)
	g2 := b.MustBuild()
	m2, err := NewModel(g2, procgraph.Ring(3))
	if err != nil {
		t.Fatal(err)
	}
	if m2.EquivalenceRep(2) == m2.EquivalenceRep(1) {
		t.Error("nodes with different in-edge costs must not be equivalent")
	}
}

// TestCompleteStateInvariants: every complete state reached has h = 0 and
// f = schedule length (the admissibility bookkeeping of the incremental h).
func TestCompleteStateInvariants(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 7, CCR: 1.0, Seed: 3})
	sys := procgraph.Ring(3)
	res, err := Solve(g, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != res.Schedule.Length {
		t.Errorf("result length %d != schedule length %d", res.Length, res.Schedule.Length)
	}
}

// TestVisitedExactness: re-adding a generated state is rejected, and two
// different partial schedules with a forced hash collision must not merge.
func TestVisitedExactness(t *testing.T) {
	g := gen.PaperExample()
	m, err := NewModel(g, procgraph.Ring(3))
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	exp := m.NewExpander(Options{Disable: DisableAllPruning}, &stats)
	vt := NewVisited()
	var states []*State
	exp.Expand(Root(), vt, func(s *State) { states = append(states, s) })
	for _, s := range states {
		// Re-adding the same state must be rejected.
		if vt.Add(s) {
			t.Error("visited accepted a duplicate")
		}
	}
	if vt.Len() != len(states) {
		t.Errorf("visited length %d != %d", vt.Len(), len(states))
	}

	// Forced collisions: states that share a signature but differ in the
	// node they schedule, in g or in depth are distinct partial schedules.
	// Both tables must keep every one and count each as a caught collision
	// — the exact check behind a full 64-bit signature match reads these
	// fields from the stored state, not from the slot.
	const sig = 0x5eed
	root := Root()
	base := &State{parent: root, sig: sig, g: 5, node: 0, proc: 0, start: 0, finish: 5, depth: 1}
	variants := map[string]*State{
		"set":   {parent: root, sig: sig, g: 5, node: 1, proc: 0, start: 0, finish: 5, depth: 1},
		"g":     {parent: root, sig: sig, g: 6, node: 0, proc: 0, start: 0, finish: 5, depth: 1},
		"depth": {parent: root, sig: sig, g: 5, node: 0, proc: 0, start: 0, finish: 5, depth: 2},
	}
	for name, other := range variants {
		vt := NewVisited()
		sv := NewSharedVisited(4)
		for _, s := range []*State{base, other} {
			if !vt.Add(s) {
				t.Errorf("%s: Visited merged states that differ in %s", name, name)
			}
			if !sv.Add(s) {
				t.Errorf("%s: SharedVisited merged states that differ in %s", name, name)
			}
		}
		if vt.Collisions != 1 || sv.Collisions() != 1 {
			t.Errorf("%s: collisions Visited=%d SharedVisited=%d, want 1 each", name, vt.Collisions, sv.Collisions())
		}
		if vt.Add(base) || sv.Add(base) {
			t.Errorf("%s: re-adding the stored state was accepted as new", name)
		}
		if vt.Len() != 2 || sv.Len() != 2 {
			t.Errorf("%s: lengths Visited=%d SharedVisited=%d, want 2", name, vt.Len(), sv.Len())
		}
	}
}

package dfbb

import (
	"testing"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/procgraph"
)

// TestPaperExampleDFBB asserts DFBB reproduces the worked example's optimal
// schedule length of 14 (Figure 4) on the 3-processor ring.
func TestPaperExampleDFBB(t *testing.T) {
	g := gen.PaperExample()
	res, err := Solve(g, procgraph.Ring(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != 14 || !res.Optimal {
		t.Fatalf("DFBB: length=%d optimal=%v; want 14, true", res.Length, res.Optimal)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPaperExampleIDA asserts IDA* reproduces the worked example.
func TestPaperExampleIDA(t *testing.T) {
	g := gen.PaperExample()
	res, err := SolveIDA(g, procgraph.Ring(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != 14 || !res.Optimal {
		t.Fatalf("IDA*: length=%d optimal=%v; want 14, true", res.Length, res.Optimal)
	}
	if res.Stats.Rounds < 1 {
		t.Fatalf("IDA*: expected at least one pass, got %d", res.Stats.Rounds)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDFBBMatchesAStar cross-checks DFBB against the A* engine over the
// §4.1 workload mix: identical proven optima on every instance.
func TestDFBBMatchesAStar(t *testing.T) {
	// Cells picked to keep plain (table-free) DFBB under a second each;
	// the v=10 cells also run with the duplicate table so both
	// configurations are cross-checked.
	cells := []struct {
		ccr float64
		v   int
	}{
		{0.1, 8}, {0.1, 9}, {0.1, 10},
		{1.0, 8}, {1.0, 9}, {1.0, 10},
		{10.0, 8}, {10.0, 9}, {10.0, 10},
	}
	for _, c := range cells {
		g := gen.MustRandom(gen.RandomConfig{V: c.v, CCR: c.ccr, Seed: uint64(c.v)*31 + uint64(c.ccr*10)})
		sys := procgraph.Complete(3)
		want, err := core.Solve(g, sys, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		variants := []bool{false}
		if c.v == 10 {
			variants = append(variants, true)
		}
		for _, useVisited := range variants {
			got, err := Solve(g, sys, Options{UseVisited: useVisited})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Optimal || got.Length != want.Length {
				t.Errorf("ccr=%g v=%d visited=%v: DFBB length=%d optimal=%v; A* found %d",
					c.ccr, c.v, useVisited, got.Length, got.Optimal, want.Length)
			}
			if err := got.Schedule.Validate(); err != nil {
				t.Errorf("ccr=%g v=%d: invalid schedule: %v", c.ccr, c.v, err)
			}
		}
	}
}

// TestIDAMatchesAStar cross-checks IDA* against the A* engine likewise.
func TestIDAMatchesAStar(t *testing.T) {
	// IDA* keeps no duplicate table, so its pass cost varies wildly with
	// instance reconvergence; cells picked to stay under a second each.
	cells := []struct {
		ccr float64
		v   int
	}{
		{0.1, 8}, {0.1, 9}, {0.1, 10},
		{1.0, 8}, {1.0, 9},
		{10.0, 8}, {10.0, 10},
	}
	for _, c := range cells {
		g := gen.MustRandom(gen.RandomConfig{V: c.v, CCR: c.ccr, Seed: uint64(c.v)*31 + uint64(c.ccr*10)})
		sys := procgraph.Complete(3)
		want, err := core.Solve(g, sys, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveIDA(g, sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Optimal || got.Length != want.Length {
			t.Errorf("ccr=%g v=%d: IDA* length=%d optimal=%v; A* found %d",
				c.ccr, c.v, got.Length, got.Optimal, want.Length)
		}
	}
}

// TestDFBBMatchesBruteforce pins DFBB to the exhaustive ground truth on
// small instances, independently of the A* machinery both engines share.
func TestDFBBMatchesBruteforce(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g := gen.MustRandom(gen.RandomConfig{V: 7, CCR: 1.0, Seed: seed})
		sys := procgraph.Complete(3)
		truth, err := bruteforce.Solve(g, sys)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(g, sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Length != truth.Length {
			t.Errorf("seed=%d: DFBB %d != bruteforce %d", seed, got.Length, truth.Length)
		}
	}
}

// TestDFBBVisitedAblation asserts the optional duplicate table changes only
// the effort, never the optimum, and never increases expansions.
func TestDFBBVisitedAblation(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 10, CCR: 1.0, Seed: 5})
	sys := procgraph.Complete(3)
	plain, err := Solve(g, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tabled, err := Solve(g, sys, Options{UseVisited: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Length != tabled.Length {
		t.Fatalf("visited table changed the optimum: %d vs %d", plain.Length, tabled.Length)
	}
	if tabled.Stats.Expanded > plain.Stats.Expanded {
		t.Errorf("visited table increased expansions: %d > %d",
			tabled.Stats.Expanded, plain.Stats.Expanded)
	}
	if tabled.Stats.VisitedSize == 0 {
		t.Error("UseVisited run recorded no states")
	}
	if plain.Stats.VisitedSize != 0 {
		t.Error("plain run unexpectedly recorded visited states")
	}
}

// TestDFBBPruningTogglesPreserveOptimum asserts the §3.2 prunings are
// effort-only in the depth-first engine too.
func TestDFBBPruningTogglesPreserveOptimum(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 9, CCR: 1.0, Seed: 77})
	sys := procgraph.Complete(3)
	want, err := Solve(g, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, dis := range []core.Disable{
		core.DisableIsomorphism,
		core.DisableEquivalence,
		core.DisableUpperBound,
		core.DisablePriorityOrder,
		core.DisableAllPruning,
	} {
		got, err := Solve(g, sys, Options{Options: core.Options{Disable: dis}})
		if err != nil {
			t.Fatal(err)
		}
		if got.Length != want.Length || !got.Optimal {
			t.Errorf("disable=%b: length=%d optimal=%v; want %d, true",
				dis, got.Length, got.Optimal, want.Length)
		}
	}
}

// TestDFBBHPlus asserts the strengthened heuristic preserves the optimum
// and cannot expand more states than the paper's h (it is pointwise >=).
func TestDFBBHPlus(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 10, CCR: 10.0, Seed: 3})
	sys := procgraph.Complete(3)
	paper, err := Solve(g, sys, Options{Options: core.Options{HFunc: core.HPaper}})
	if err != nil {
		t.Fatal(err)
	}
	plus, err := Solve(g, sys, Options{Options: core.Options{HFunc: core.HPlus}})
	if err != nil {
		t.Fatal(err)
	}
	if paper.Length != plus.Length {
		t.Fatalf("HPlus changed the optimum: %d vs %d", plus.Length, paper.Length)
	}
	if plus.Stats.Expanded > paper.Stats.Expanded {
		t.Errorf("HPlus expanded more states than HPaper: %d > %d",
			plus.Stats.Expanded, paper.Stats.Expanded)
	}
}

// TestDFBBCutoffReturnsFeasible asserts a tight expansion budget still
// yields a feasible (fallback) schedule, flagged non-optimal.
func TestDFBBCutoffReturnsFeasible(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 12, CCR: 10.0, Seed: 8})
	sys := procgraph.Complete(4)
	res, err := Solve(g, sys, Options{Options: core.Options{Stop: func(expanded int64) bool { return expanded >= 1 }}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule == nil {
		t.Fatal("cutoff run returned no schedule")
	}
	if res.Optimal {
		t.Error("cutoff run claimed optimality")
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Errorf("fallback schedule invalid: %v", err)
	}
}

// TestDFBBDeadlineCutoff asserts an already-expired deadline aborts early.
func TestDFBBDeadlineCutoff(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 12, CCR: 10.0, Seed: 9})
	sys := procgraph.Complete(4)
	deadline := time.Now().Add(-time.Second)
	res, err := Solve(g, sys, Options{Options: core.Options{Stop: func(int64) bool { return time.Now().After(deadline) }}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		t.Error("expired-deadline run claimed optimality")
	}
	if res.Schedule == nil {
		t.Fatal("expired-deadline run returned no schedule")
	}
}

// TestDFBBHeterogeneous cross-checks DFBB against A* on a system with
// per-processor speeds.
func TestDFBBHeterogeneous(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 9, CCR: 1.0, Seed: 13})
	sys := procgraph.CompleteWith(3, procgraph.Config{Speeds: []float64{1, 2, 4}})
	want, err := core.Solve(g, sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(g, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Length != want.Length || !got.Optimal {
		t.Fatalf("heterogeneous: DFBB %d (optimal=%v) != A* %d", got.Length, got.Optimal, want.Length)
	}
}

// TestDFBBMemoryProfile asserts the engine's depth-first character: peak
// retained depth (MaxOpen) never exceeds v, in contrast to A*'s OPEN list.
func TestDFBBMemoryProfile(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 11, CCR: 1.0, Seed: 21})
	sys := procgraph.Complete(3)
	res, err := Solve(g, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxOpen > g.NumNodes()+1 {
		t.Fatalf("DFS spine %d exceeds v+1 = %d", res.Stats.MaxOpen, g.NumNodes()+1)
	}
	astar, err := core.Solve(g, sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if astar.Stats.MaxOpen <= res.Stats.MaxOpen {
		t.Logf("note: A* OPEN peak %d not larger than DFS spine %d on this instance",
			astar.Stats.MaxOpen, res.Stats.MaxOpen)
	}
}

// TestIDAThresholdsTerminate asserts IDA* terminates with a proven optimum
// even on a CCR=10 instance where the threshold climbs many times.
func TestIDAThresholdsTerminate(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 9, CCR: 10.0, Seed: 4})
	sys := procgraph.Complete(3)
	res, err := SolveIDA(g, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatal("IDA* did not prove optimality")
	}
	want, err := core.Solve(g, sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != want.Length {
		t.Fatalf("IDA* %d != A* %d", res.Length, want.Length)
	}
}

// TestDFBBRejectsBadInstances asserts model validation errors propagate
// (here: a graph exceeding the engine's MaxNodes mask limit).
func TestDFBBRejectsBadInstances(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: core.MaxNodes + 1, CCR: 1.0, Seed: 1})
	if _, err := Solve(g, procgraph.Complete(2), Options{}); err == nil {
		t.Error("expected error for oversized graph")
	}
	if _, err := SolveIDA(g, procgraph.Complete(2), Options{}); err == nil {
		t.Error("expected error for oversized graph (IDA*)")
	}
}

// TestUpperBoundBelowOptimumUncertified asserts that a caller-supplied U
// below the optimum leaves nothing proven: both engines exhaust the space
// without an incumbent, and the list-scheduling fallback (length 137, where
// the optimum is 101) is returned without a certificate.
func TestUpperBoundBelowOptimumUncertified(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 7, CCR: 1.0, Seed: 6})
	sys := procgraph.Ring(3)
	opt := Options{Options: core.Options{UpperBound: 90}}
	for name, solve := range map[string]func() (*core.Result, error){
		"dfbb": func() (*core.Result, error) { return Solve(g, sys, opt) },
		"ida":  func() (*core.Result, error) { return SolveIDA(g, sys, opt) },
	} {
		res, err := solve()
		if err != nil {
			t.Fatal(err)
		}
		if res.Optimal || res.BoundFactor != 0 {
			t.Errorf("%s: length %d under U=90 claims optimal=%v bound %g", name, res.Length, res.Optimal, res.BoundFactor)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

package engine_test

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/procgraph"
	"repro/internal/taskgraph"
)

// TestRegistryContents asserts the refactor's contract: at least the five
// ported engines are registered, each resolvable by name, each described.
func TestRegistryContents(t *testing.T) {
	all := engine.All()
	if len(all) < 5 {
		t.Fatalf("registry has %d engines; want at least 5", len(all))
	}
	for _, want := range []string{"astar", "aeps", "dfbb", "ida", "bnb", "parallel", "native", "native-eps"} {
		e, err := engine.Lookup(want)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", want, err)
		}
		if e.Name() != want {
			t.Errorf("Lookup(%q).Name() = %q", want, e.Name())
		}
		if section, desc := engine.Describe(e); section == "" || desc == "" {
			t.Errorf("engine %q lacks metadata: section=%q desc=%q", want, section, desc)
		}
	}
	if _, err := engine.Lookup("no-such-engine"); err == nil {
		t.Error("Lookup of an unknown engine did not error")
	}
	names := engine.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}

// corpusSystems returns the small target systems the conformance corpus
// runs on — one homogeneous fully-connected, one constrained topology.
func corpusSystems() []*procgraph.System {
	return []*procgraph.System{procgraph.Complete(3), procgraph.Ring(2)}
}

// TestEngineConformance runs every registered engine over a shared corpus
// of small random §4.1 graphs and asserts the exact engines agree on the
// optimal length, while ε-bounded engines stay within their proven factor.
// This is the paper's unification claim as a test: one state space, many
// interchangeable searches, one optimum.
func TestEngineConformance(t *testing.T) {
	for _, v := range []int{5, 7, 9} {
		for _, seed := range []uint64{1, 2, 3} {
			g := gen.MustRandom(gen.RandomConfig{V: v, CCR: 1.0, Seed: seed})
			for _, sys := range corpusSystems() {
				ref, err := engine.Solve(context.Background(), "astar", g, sys, engine.Config{})
				if err != nil {
					t.Fatalf("astar v=%d seed=%d %s: %v", v, seed, sys.Name(), err)
				}
				if !ref.Optimal {
					t.Fatalf("astar v=%d seed=%d %s: reference not proven optimal", v, seed, sys.Name())
				}
				for _, e := range engine.All() {
					m, err := core.NewModel(g, sys)
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.Solve(context.Background(), m, engine.Config{})
					if err != nil {
						t.Fatalf("%s v=%d seed=%d %s: %v", e.Name(), v, seed, sys.Name(), err)
					}
					if res.Schedule == nil {
						t.Fatalf("%s v=%d seed=%d %s: no schedule", e.Name(), v, seed, sys.Name())
					}
					if err := res.Schedule.Validate(); err != nil {
						t.Fatalf("%s v=%d seed=%d %s: invalid schedule: %v", e.Name(), v, seed, sys.Name(), err)
					}
					// The BoundFactor contract across every engine: a proven
					// optimum reports exactly 1 (never the looser ε bound the
					// engine searched under), and a guarantee is only ever 1,
					// 1+ε, or 0 (no guarantee).
					if res.Optimal && res.BoundFactor != 1 {
						t.Errorf("%s v=%d seed=%d %s: Optimal with BoundFactor %g; want exactly 1",
							e.Name(), v, seed, sys.Name(), res.BoundFactor)
					}
					if !res.Optimal && res.BoundFactor == 1 {
						t.Errorf("%s v=%d seed=%d %s: BoundFactor 1 without a proven optimum",
							e.Name(), v, seed, sys.Name())
					}
					if res.BoundFactor > 1 {
						// ε-bounded engine: length within the proven factor.
						if float64(res.Length) > res.BoundFactor*float64(ref.Length)+1e-9 {
							t.Errorf("%s v=%d seed=%d %s: length %d breaks bound %.2f×%d",
								e.Name(), v, seed, sys.Name(), res.Length, res.BoundFactor, ref.Length)
						}
						continue
					}
					if !res.Optimal {
						t.Errorf("%s v=%d seed=%d %s: exact engine did not prove optimality", e.Name(), v, seed, sys.Name())
						continue
					}
					if res.Length != ref.Length {
						t.Errorf("%s v=%d seed=%d %s: optimal length %d, astar found %d",
							e.Name(), v, seed, sys.Name(), res.Length, ref.Length)
					}
				}
			}
		}
	}
}

// TestCancelledContextStopsEngines asserts the refactor's other contract:
// a cancelled context stops every engine promptly, returning Optimal=false
// with whatever partial stats the search had accumulated rather than an
// error. The instance is hard enough that no engine can finish legitimately
// in the allotted wall time.
func TestCancelledContextStopsEngines(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 20, CCR: 1.0, Seed: 1})
	sys := procgraph.Complete(4)
	m, err := core.NewModel(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engine.All() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already expired before the search starts
		started := time.Now()
		res, err := e.Solve(ctx, m, engine.Config{})
		elapsed := time.Since(started)
		if err != nil {
			t.Errorf("%s: cancelled solve errored: %v", e.Name(), err)
			continue
		}
		if elapsed > 5*time.Second {
			t.Errorf("%s: cancelled solve took %v; want a prompt stop", e.Name(), elapsed)
		}
		if res.Optimal {
			t.Errorf("%s: cancelled solve claims optimality", e.Name())
		}
		if res.Stats.Expanded < 0 {
			t.Errorf("%s: negative expansion count", e.Name())
		}
		if res.Schedule != nil {
			if err := res.Schedule.Validate(); err != nil {
				t.Errorf("%s: cancelled solve returned invalid schedule: %v", e.Name(), err)
			}
		}
	}
}

// TestBudgetSources exercises the three cutoff sources of the shared
// checker individually.
func TestBudgetSources(t *testing.T) {
	if b := (*engine.Budget)(nil); b.Stop(1 << 40) {
		t.Error("nil budget stopped")
	}

	b := engine.NewBudget(context.Background(), 100, 0)
	if b.Stop(99) {
		t.Error("expansion cap fired below the cap")
	}
	if !b.Stop(100) {
		t.Error("expansion cap did not fire at the cap")
	}

	ctx, cancel := context.WithCancel(context.Background())
	b = engine.NewBudget(ctx, 0, 0)
	if b.Stop(1) {
		t.Error("live context stopped the search")
	}
	cancel()
	if !b.Stop(2) {
		t.Error("cancelled context did not stop the search")
	}

	b = engine.NewBudget(context.Background(), 0, time.Nanosecond)
	time.Sleep(time.Millisecond)
	if !b.Stop(1) {
		t.Error("expired timeout did not stop the search")
	}
}

// TestBudgetCadenceUniform asserts every engine honours the same
// MaxExpanded semantics through the shared checker: the search stops at
// (not beyond) the cap, modulo the parallel engine's round granularity.
func TestBudgetCadenceUniform(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 18, CCR: 1.0, Seed: 7})
	sys := procgraph.Complete(4)
	m, err := core.NewModel(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	const cap = 200
	for _, e := range engine.All() {
		res, err := e.Solve(context.Background(), m, engine.Config{MaxExpanded: cap})
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if res.Optimal {
			t.Errorf("%s: capped solve claims optimality", e.Name())
		}
		// Serial engines overshoot by at most the final expansion; the
		// parallel engine checks between rounds, so allow it one round of
		// slack per PPE; the native engine polls per expansion on every
		// worker, so up to one in-flight expansion per worker can land
		// after the cap fires.
		slack := int64(1)
		switch {
		case e.Name() == "parallel":
			slack = int64(4 * m.V)
		case strings.HasPrefix(e.Name(), "native"):
			slack = int64(runtime.GOMAXPROCS(0))
		}
		if res.Stats.Expanded > cap+slack {
			t.Errorf("%s: expanded %d states under a cap of %d (slack %d)",
				e.Name(), res.Stats.Expanded, cap, slack)
		}
	}
}

// TestBudgetCutReturnsSchedule asserts the incumbent contract under the
// harshest cutoff: with a one-expansion budget, every registered engine
// must still hand back a non-nil, valid schedule (its incumbent or the
// list-scheduling fallback) with Optimal=false — never a nil schedule,
// which would crash schedule-consuming layers like the network daemon.
func TestBudgetCutReturnsSchedule(t *testing.T) {
	g, err := gen.Random(gen.RandomConfig{V: 16, CCR: 1.0, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sys := procgraph.Complete(4)
	m, err := core.NewModel(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engine.All() {
		if e.Name() == "test-block" {
			continue // test-only engine registered elsewhere in this binary
		}
		res, err := e.Solve(context.Background(), m, engine.Config{MaxExpanded: 1})
		if err != nil {
			t.Errorf("%s: budget-cut solve errored: %v", e.Name(), err)
			continue
		}
		if res.Schedule == nil {
			t.Errorf("%s: budget-cut solve returned a nil schedule", e.Name())
			continue
		}
		if res.Optimal {
			t.Errorf("%s: claims optimality after one expansion on v=16", e.Name())
		}
		if verr := res.Schedule.Validate(); verr != nil {
			t.Errorf("%s: budget-cut incumbent invalid: %v", e.Name(), verr)
		}
	}
}

// TestEnginesAtCostBound scales a random instance until its worst-case
// schedule length sits just inside core.MaxCost, on a hop-scaled ring where
// communication costs double, and requires every registered engine to
// return a valid schedule, the exact engines all proving the same optimum.
// This is the cost-range argument of core.CheckInstance in practice: no f
// the engines compute on an accepted instance overflows.
func TestEnginesAtCostBound(t *testing.T) {
	base := gen.MustRandom(gen.RandomConfig{V: 7, CCR: 1.0, Seed: 3})
	sys := procgraph.Ring(4) // diameter 2
	var worst int64
	for n := int32(0); int(n) < base.NumNodes(); n++ {
		worst += int64(base.Weight(n))
	}
	for _, e := range base.Edges() {
		worst += 2 * int64(e.Cost)
	}
	scale := int32(core.MaxCost / worst)
	b := taskgraph.NewBuilder("scaled")
	for n := int32(0); int(n) < base.NumNodes(); n++ {
		b.AddNode(base.Weight(n) * scale)
	}
	for _, e := range base.Edges() {
		b.AddEdge(e.From, e.To, e.Cost*scale)
	}
	g := b.MustBuild()
	if err := core.CheckInstance(g, sys); err != nil {
		t.Fatalf("scaled instance rejected: %v", err)
	}
	if int64(scale)*worst*2 <= core.MaxCost {
		t.Fatalf("scale %d leaves the instance far from the bound", scale)
	}
	ref, err := engine.Solve(context.Background(), "astar", g, sys, engine.Config{})
	if err != nil || !ref.Optimal {
		t.Fatalf("astar: %v (optimal %v)", err, ref != nil && ref.Optimal)
	}
	for _, e := range engine.All() {
		if e.Name() == "test-block" {
			continue // test-only engine registered elsewhere in this binary
		}
		res, err := engine.Solve(context.Background(), e.Name(), g, sys, engine.Config{})
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
		if res.Optimal && res.Length != ref.Length {
			t.Errorf("%s: proved %d, astar proved %d", e.Name(), res.Length, ref.Length)
		}
		if float64(res.Length) > res.BoundFactor*float64(ref.Length) && res.BoundFactor > 0 {
			t.Errorf("%s: length %d breaks its bound %g×%d", e.Name(), res.Length, res.BoundFactor, ref.Length)
		}
	}
}

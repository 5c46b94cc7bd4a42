package native

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/procgraph"
)

// solve runs the native search on m through the engine boundary.
func solve(m *core.Model, opt Options) (*core.Result, error) {
	return core.Run(m, opt.Options, func(s core.Start) (core.Outcome, error) { return Search(m, opt, s), nil })
}

// solveSerial is the serial A* reference for one instance.
func solveSerial(t *testing.T, m *core.Model) *core.Result {
	t.Helper()
	ref, err := core.Run(m, core.Options{}, func(s core.Start) (core.Outcome, error) {
		return core.Search(m, core.Options{}, s), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Optimal {
		t.Fatal("serial reference did not prove optimality")
	}
	return ref
}

// TestNativeMatchesSerial runs the native engine at several worker counts
// over a mixed corpus and asserts it proves the same optimum as serial A*
// with the registry-wide BoundFactor contract.
func TestNativeMatchesSerial(t *testing.T) {
	systems := []*procgraph.System{procgraph.Complete(3), procgraph.Ring(2)}
	// (v, seed) pairs chosen so every instance proves out in well under
	// 100k expansions — §4.1 instance hardness varies by orders of
	// magnitude seed to seed at equal v.
	for _, cell := range [][2]int{{6, 1}, {6, 2}, {9, 1}, {9, 2}, {12, 5}} {
		v, seed := cell[0], uint64(cell[1])
		{
			g := gen.MustRandom(gen.RandomConfig{V: v, CCR: 1.0, Seed: seed})
			for _, sys := range systems {
				m, err := core.NewModel(g, sys)
				if err != nil {
					t.Fatal(err)
				}
				ref := solveSerial(t, m)
				for _, workers := range []int{1, 2, 4, 7} {
					res, err := solve(m, Options{Workers: workers})
					if err != nil {
						t.Fatalf("v=%d seed=%d %s w=%d: %v", v, seed, sys.Name(), workers, err)
					}
					if !res.Optimal || res.BoundFactor != 1 {
						t.Fatalf("v=%d seed=%d %s w=%d: optimal=%v bound=%g, want a proven optimum",
							v, seed, sys.Name(), workers, res.Optimal, res.BoundFactor)
					}
					if res.Length != ref.Length {
						t.Fatalf("v=%d seed=%d %s w=%d: length %d, serial optimum %d",
							v, seed, sys.Name(), workers, res.Length, ref.Length)
					}
					if err := res.Schedule.Validate(); err != nil {
						t.Fatalf("v=%d seed=%d %s w=%d: invalid schedule: %v", v, seed, sys.Name(), workers, err)
					}
				}
			}
		}
	}
}

// TestNativeEpsilonBound runs the ε variant and asserts the returned length
// respects the proven factor against the exact optimum, with Optimal and
// BoundFactor moving together.
func TestNativeEpsilonBound(t *testing.T) {
	for _, seed := range []uint64{3, 5} {
		g := gen.MustRandom(gen.RandomConfig{V: 10, CCR: 1.0, Seed: seed})
		m, err := core.NewModel(g, procgraph.Complete(3))
		if err != nil {
			t.Fatal(err)
		}
		ref := solveSerial(t, m)
		res, err := solve(m, Options{Options: core.Options{Epsilon: 0.2}, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.BoundFactor == 0 {
			t.Fatal("completed ε solve established no bound")
		}
		if res.Optimal != (res.BoundFactor == 1) {
			t.Fatalf("Optimal=%v BoundFactor=%g violate the contract", res.Optimal, res.BoundFactor)
		}
		if float64(res.Length) > res.BoundFactor*float64(ref.Length)+1e-9 {
			t.Fatalf("length %d breaks bound %g × %d", res.Length, res.BoundFactor, ref.Length)
		}
	}
}

// TestNativeCancellation cuts a hard solve off mid-search and proves the
// whole machine winds down: the solve returns promptly with a valid non-optimal
// incumbent, every worker goroutine exits, and every worker arena is
// released to the garbage collector.
func TestNativeCancellation(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 24, CCR: 1.0, Seed: 1})
	m, err := core.NewModel(g, procgraph.Complete(4))
	if err != nil {
		t.Fatal(err)
	}
	var cut atomic.Bool
	opt := Options{Workers: 4}
	opt.Stop = func(expanded int64) bool {
		// Cut off mid-search: after real work has happened but long
		// before a v=24 proof is plausible.
		return cut.Load() || expanded > 3000
	}
	// Watch every worker arena: all must become garbage once the solve's
	// references are dropped, proving no worker or global structure leaks
	// a state reference past the solve.
	var sv *solver
	released := make(chan int, opt.Workers)
	time.AfterFunc(200*time.Millisecond, func() { cut.Store(true) })

	start := time.Now()
	res, err := core.Run(m, opt.Options, func(s core.Start) (core.Outcome, error) {
		sv = newSolver(m, opt, s.UB)
		for i, w := range sv.workers {
			runtime.AddCleanup(w.exp.Arena(), func(id int) { released <- id }, i)
		}
		sv.run()
		return sv.outcome(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if since := time.Since(start); since > 10*time.Second {
		t.Fatalf("cancelled solve took %v", since)
	}
	if res.Optimal || res.BoundFactor != 0 {
		t.Fatalf("cut-off solve claims a certificate: optimal=%v bound=%g", res.Optimal, res.BoundFactor)
	}
	if res.Schedule == nil {
		t.Fatal("cut-off solve returned no schedule")
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("cut-off incumbent invalid: %v", err)
	}

	// All workers must have exited — not just gone quiet.
	deadline := time.Now().Add(5 * time.Second)
	for ActiveWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d native workers still alive after the solve returned", ActiveWorkers())
		}
		time.Sleep(time.Millisecond)
	}

	// Drop the solver and result; the arenas must now be collectable.
	workers := len(sv.workers)
	sv, res = nil, nil
	_ = res
	got := 0
	for deadline := time.Now().Add(10 * time.Second); got < workers && time.Now().Before(deadline); {
		runtime.GC()
		select {
		case <-released:
			got++
		case <-time.After(20 * time.Millisecond):
		}
	}
	if got != workers {
		t.Fatalf("only %d of %d worker arenas were released after the solve", got, workers)
	}
}

// TestNativeWorkerClamp: a hostile worker count (the knob is reachable from
// the network job API) is clamped, not honoured with a goroutine per unit.
func TestNativeWorkerClamp(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 6, CCR: 1.0, Seed: 1})
	m, err := core.NewModel(g, procgraph.Complete(2))
	if err != nil {
		t.Fatal(err)
	}
	sv := newSolver(m, Options{Workers: 1 << 20}, 0)
	if len(sv.workers) != maxWorkers {
		t.Fatalf("solver built %d workers for a 2^20 request, want the %d cap", len(sv.workers), maxWorkers)
	}
}

// TestNativeExhaustionWithoutGoal: when the upper bound override prunes the
// whole space below the optimum, the engine must fall back to the heuristic
// schedule without claiming optimality — the serial engine's contract.
func TestNativeUpperBoundFallback(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 8, CCR: 1.0, Seed: 4})
	m, err := core.NewModel(g, procgraph.Complete(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := solve(m, Options{Options: core.Options{UpperBound: 1}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule == nil {
		t.Fatal("no fallback schedule")
	}
	if res.Optimal {
		t.Fatal("exhausted-by-pruning solve claims optimality")
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("fallback invalid: %v", err)
	}
}

// TestNativeStatsSane spot-checks the merged counters of a multi-worker
// solve: expansions, generation, a populated global visited table.
func TestNativeStatsSane(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 12, CCR: 1.0, Seed: 5})
	m, err := core.NewModel(g, procgraph.Complete(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := solve(m, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Expanded <= 0 || st.Generated < st.Expanded {
		t.Fatalf("implausible effort counters: expanded=%d generated=%d", st.Expanded, st.Generated)
	}
	if st.VisitedSize <= 0 || int64(st.VisitedSize) > st.Generated {
		t.Fatalf("visited size %d out of range (generated %d)", st.VisitedSize, st.Generated)
	}
	if st.MaxOpen <= 0 {
		t.Fatalf("MaxOpen %d", st.MaxOpen)
	}
}

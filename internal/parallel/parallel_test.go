package parallel

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/procgraph"
)

// TestPaperExample2PPEs reproduces the §3.3 worked example: the parallel A*
// with 2 PPEs on the Figure 1 DAG and the 3-processor ring must find the
// optimal length 14.
func TestPaperExample2PPEs(t *testing.T) {
	g := gen.PaperExample()
	sys := procgraph.Ring(3)
	res, err := Solve(g, sys, Options{PPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != 14 || !res.Optimal {
		t.Fatalf("length=%d optimal=%v, want 14/true", res.Length, res.Optimal)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelMatchesSerial asserts that the parallel engine proves the same
// optimum as the serial engine across PPE counts, CCRs, and topologies.
func TestParallelMatchesSerial(t *testing.T) {
	sizes := []int{8, 9, 10}
	ppes := []int{1, 2, 4, 8}
	for _, ccr := range []float64{0.1, 1.0, 10.0} {
		for _, v := range sizes {
			g := gen.MustRandom(gen.RandomConfig{V: v, CCR: ccr, Seed: uint64(v)*31 + uint64(ccr*10)})
			sys := procgraph.Complete(3)
			serial, err := core.Solve(g, sys, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !serial.Optimal {
				t.Fatalf("serial not optimal on v=%d ccr=%g", v, ccr)
			}
			for _, q := range ppes {
				par, err := Solve(g, sys, Options{PPEs: q})
				if err != nil {
					t.Fatal(err)
				}
				if !par.Optimal {
					t.Errorf("v=%d ccr=%g q=%d: parallel did not prove optimality", v, ccr, q)
				}
				if par.Length != serial.Length {
					t.Errorf("v=%d ccr=%g q=%d: parallel length %d != serial %d",
						v, ccr, q, par.Length, serial.Length)
				}
				if err := par.Schedule.Validate(); err != nil {
					t.Errorf("v=%d ccr=%g q=%d: invalid schedule: %v", v, ccr, q, err)
				}
			}
		}
	}
}

// TestParallelEpsilonBound asserts the parallel Aε* honors its (1+ε) bound
// against the serially proven optimum.
func TestParallelEpsilonBound(t *testing.T) {
	for _, eps := range []float64{0.2, 0.5} {
		for _, v := range []int{8, 9, 10} {
			g := gen.MustRandom(gen.RandomConfig{V: v, CCR: 1.0, Seed: uint64(v) * 7})
			sys := procgraph.Complete(3)
			serial, err := core.Solve(g, sys, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			par, err := Solve(g, sys, Options{Options: core.Options{Epsilon: eps}, PPEs: 4})
			if err != nil {
				t.Fatal(err)
			}
			if par.Schedule == nil {
				t.Fatalf("eps=%g v=%d: no schedule", eps, v)
			}
			if float64(par.Length) > (1+eps)*float64(serial.Length)+1e-9 {
				t.Errorf("eps=%g v=%d: length %d exceeds bound of optimal %d",
					eps, v, par.Length, serial.Length)
			}
			if err := par.Schedule.Validate(); err != nil {
				t.Errorf("eps=%g v=%d: invalid schedule: %v", eps, v, err)
			}
		}
	}
}

// TestParallelTopologies runs the engine over ring/mesh/hypercube/complete
// PPE interconnects; the optimum must be invariant to the interconnect.
func TestParallelTopologies(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 10, CCR: 1.0, Seed: 99})
	sys := procgraph.Complete(3)
	serial, err := core.Solve(g, sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inters := []*procgraph.System{
		procgraph.Ring(4),
		procgraph.Mesh(2, 2),
		procgraph.Hypercube(2),
		procgraph.Complete(4),
		procgraph.Chain(4),
		procgraph.Star(4),
	}
	for _, inter := range inters {
		res, err := Solve(g, sys, Options{PPEs: 4, Interconnect: inter})
		if err != nil {
			t.Fatalf("%s: %v", inter.Name(), err)
		}
		if res.Length != serial.Length || !res.Optimal {
			t.Errorf("%s: length=%d optimal=%v, want %d/true",
				inter.Name(), res.Length, res.Optimal, serial.Length)
		}
	}
}

// TestParallelDeterministic asserts two runs with identical options yield
// identical lengths and identical per-run state counts (the bulk-synchronous
// design makes rounds reproducible).
func TestParallelDeterministic(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 10, CCR: 0.1, Seed: 5})
	sys := procgraph.Complete(3)
	a, err := Solve(g, sys, Options{PPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(g, sys, Options{PPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Length != b.Length {
		t.Errorf("lengths differ: %d vs %d", a.Length, b.Length)
	}
	if a.Stats.Expanded != b.Stats.Expanded || a.Stats.Generated != b.Stats.Generated {
		t.Errorf("state counts differ: %d/%d vs %d/%d",
			a.Stats.Expanded, a.Stats.Generated, b.Stats.Expanded, b.Stats.Generated)
	}
	if a.Stats.Rounds != b.Stats.Rounds {
		t.Errorf("round counts differ: %d vs %d", a.Stats.Rounds, b.Stats.Rounds)
	}
}

// TestParallelCutoff asserts the MaxExpanded cutoff still returns a feasible
// schedule.
func TestParallelCutoff(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 20, CCR: 10.0, Seed: 3})
	sys := procgraph.Complete(6)
	res, err := Solve(g, sys, Options{Options: core.Options{Stop: func(expanded int64) bool { return expanded >= 50 }}, PPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule == nil {
		t.Fatal("cutoff returned no schedule")
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		t.Error("cutoff run claims optimality")
	}
}

// TestSinglePPEEqualsSerial sanity-checks that one PPE degenerates to the
// serial algorithm's result.
func TestSinglePPEEqualsSerial(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 10, CCR: 0.1, Seed: 11})
	sys := procgraph.Ring(3)
	serial, err := core.Solve(g, sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Solve(g, sys, Options{PPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if par.Length != serial.Length || !par.Optimal {
		t.Errorf("1-PPE length=%d optimal=%v, want %d/true", par.Length, par.Optimal, serial.Length)
	}
}

// TestDistributeHashMatchesSerial: the hash-partitioned distribution
// (ref. [15]) must prove the same optimum as the serial engine.
func TestDistributeHashMatchesSerial(t *testing.T) {
	for _, ccr := range []float64{0.1, 1.0, 10.0} {
		for _, v := range []int{8, 9, 10} {
			g := gen.MustRandom(gen.RandomConfig{V: v, CCR: ccr, Seed: uint64(v)*31 + uint64(ccr*10)})
			sys := procgraph.Complete(3)
			serial, err := core.Solve(g, sys, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []int{2, 4} {
				par, err := Solve(g, sys, Options{PPEs: q, Distribution: DistributeHash})
				if err != nil {
					t.Fatal(err)
				}
				if !par.Optimal || par.Length != serial.Length {
					t.Errorf("hash v=%d ccr=%g q=%d: length=%d optimal=%v, want %d/true",
						v, ccr, q, par.Length, par.Optimal, serial.Length)
				}
				if err := par.Schedule.Validate(); err != nil {
					t.Errorf("hash v=%d ccr=%g q=%d: %v", v, ccr, q, err)
				}
			}
		}
	}
}

// TestDistributeHashReducesDuplication: the sharded global table must keep
// total expansions close to serial, unlike local-only CLOSED lists.
func TestDistributeHashReducesDuplication(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 10, CCR: 0.1, Seed: 10*31 + 1})
	sys := procgraph.Complete(3)
	serial, err := core.Solve(g, sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	paperMode, err := Solve(g, sys, Options{PPEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	hashMode, err := Solve(g, sys, Options{PPEs: 8, Distribution: DistributeHash})
	if err != nil {
		t.Fatal(err)
	}
	if hashMode.Stats.Expanded >= paperMode.Stats.Expanded {
		t.Errorf("hash mode should expand fewer states: hash=%d paper=%d",
			hashMode.Stats.Expanded, paperMode.Stats.Expanded)
	}
	t.Logf("expanded: serial=%d paper-mode(8)=%d hash-mode(8)=%d",
		serial.Stats.Expanded, paperMode.Stats.Expanded, hashMode.Stats.Expanded)
}

// TestCriticalWorkAccounting: the modeled critical path must be positive,
// at most the total expansions, and at least total/q.
func TestCriticalWorkAccounting(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 10, CCR: 0.1, Seed: 5})
	sys := procgraph.Complete(3)
	res, err := Solve(g, sys, Options{PPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	cw := res.Stats.CriticalWork
	if cw <= 0 || cw > res.Stats.Expanded {
		t.Errorf("critical work %d out of range (expanded %d)", cw, res.Stats.Expanded)
	}
	if cw*4 < res.Stats.Expanded-res.Stats.Rounds*4 {
		t.Errorf("critical work %d impossibly small for %d expansions on 4 PPEs", cw, res.Stats.Expanded)
	}
}

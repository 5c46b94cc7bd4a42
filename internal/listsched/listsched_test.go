package listsched

import (
	"testing"
	"testing/quick"

	"repro/internal/bruteforce"
	"repro/internal/gen"
	"repro/internal/procgraph"
)

// TestValidSchedules: every priority mode and insertion setting yields a
// schedule that passes full validation, across CCRs and topologies.
func TestValidSchedules(t *testing.T) {
	priorities := []Priority{PriorityBLevel, PriorityBLPlusTL, PriorityStaticLevel}
	for _, ccr := range []float64{0.1, 1.0, 10.0} {
		for seed := uint64(0); seed < 5; seed++ {
			g := gen.MustRandom(gen.RandomConfig{V: 20, CCR: ccr, Seed: seed})
			for _, sys := range []*procgraph.System{procgraph.Complete(4), procgraph.Ring(5), procgraph.Mesh(2, 3)} {
				for _, p := range priorities {
					for _, ins := range []bool{false, true} {
						s, err := Schedule(g, sys, Options{Priority: p, Insertion: ins})
						if err != nil {
							t.Fatal(err)
						}
						if err := s.Validate(); err != nil {
							t.Errorf("ccr=%g seed=%d sys=%s prio=%s ins=%v: %v", ccr, seed, sys.Name(), p, ins, err)
						}
					}
				}
			}
		}
	}
}

// TestUpperBoundsOptimal: U must never beat the true optimum (it is the
// length of a feasible schedule), verified against brute force on 40
// random instances for each CCR and each of a homogeneous and a
// heterogeneous system.
func TestUpperBoundsOptimal(t *testing.T) {
	systems := []*procgraph.System{
		procgraph.Complete(3),
		procgraph.CompleteWith(3, procgraph.Config{Speeds: []float64{1.5, 1, 2}}),
	}
	for _, ccr := range []float64{0.1, 1, 10} {
		for si, sys := range systems {
			f := func(seed uint64) bool {
				g := gen.MustRandom(gen.RandomConfig{V: 4 + int(seed%4), CCR: ccr, Seed: seed})
				opt, err := bruteforce.Solve(g, sys)
				if err != nil {
					return false
				}
				ub, err := UpperBound(g, sys)
				if err != nil {
					return false
				}
				if err := ub.Validate(); err != nil {
					t.Logf("ccr=%g system %d seed=%d: %v", ccr, si, seed, err)
					return false
				}
				return ub.Length >= opt.Length
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Errorf("ccr=%g system %d: %v", ccr, si, err)
			}
		}
	}
}

// TestUpperBoundOnePE: at CCR 10 the one-PE schedule beats the list
// schedule, and U is the one-PE schedule on the cheapest PE: PE 0 on a
// homogeneous system, the smallest speed multiplier (PE 1) on a
// heterogeneous one.
func TestUpperBoundOnePE(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 8, CCR: 10, Seed: 3})
	for _, tc := range []struct {
		sys *procgraph.System
		pe  int32
	}{
		{procgraph.Complete(3), 0},
		{procgraph.CompleteWith(3, procgraph.Config{Speeds: []float64{2, 0.5, 1}}), 1},
	} {
		list, err := Schedule(g, tc.sys, Options{Priority: PriorityBLevel})
		if err != nil {
			t.Fatal(err)
		}
		ub, err := UpperBound(g, tc.sys)
		if err != nil {
			t.Fatal(err)
		}
		if err := ub.Validate(); err != nil {
			t.Fatal(err)
		}
		var want int32
		for n := range g.NumNodes() {
			want += tc.sys.ExecCost(g.Weight(int32(n)), int(tc.pe))
			if p := ub.Place[n].Proc; p != tc.pe {
				t.Errorf("node %d on PE %d, want every node on PE %d", n, p, tc.pe)
			}
		}
		if ub.Length != want || ub.Length >= list.Length {
			t.Errorf("PE %d: U %d, want the one-PE length %d below the list schedule's %d", tc.pe, ub.Length, want, list.Length)
		}
	}
}

// TestInsertionNeverWorse: on any instance, the insertion variant is at
// least as good as non-insertion under the same priority (it only adds
// placement opportunities per node, greedily) — not a theorem for the final
// makespan, so assert over a suite aggregate instead.
func TestInsertionAggregate(t *testing.T) {
	var non, ins int64
	for seed := uint64(0); seed < 30; seed++ {
		g := gen.MustRandom(gen.RandomConfig{V: 24, CCR: 1.0, Seed: seed + 1000})
		sys := procgraph.Complete(4)
		a, err := Schedule(g, sys, Options{Priority: PriorityBLevel})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Schedule(g, sys, Options{Priority: PriorityBLevel, Insertion: true})
		if err != nil {
			t.Fatal(err)
		}
		non += int64(a.Length)
		ins += int64(b.Length)
	}
	if ins > non {
		t.Errorf("insertion worse in aggregate: %d > %d", ins, non)
	}
	t.Logf("aggregate lengths: non-insertion=%d insertion=%d", non, ins)
}

// TestChainStaysPut: a communication-heavy chain must be scheduled on one PE.
func TestChainStaysPut(t *testing.T) {
	g, err := gen.ForkJoin(1, 6, 10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sys := procgraph.Complete(4)
	s, err := Schedule(g, sys, Options{Priority: PriorityBLevel})
	if err != nil {
		t.Fatal(err)
	}
	if s.ProcsUsed() != 1 {
		t.Errorf("heavy chain spread over %d PEs", s.ProcsUsed())
	}
	if s.Length != int32(g.TotalWork()) {
		t.Errorf("length %d, want %d", s.Length, g.TotalWork())
	}
}

// TestIndependentSpread: independent tasks with p available PEs must use all
// of them.
func TestIndependentSpread(t *testing.T) {
	g, err := gen.ForkJoin(6, 1, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys := procgraph.Complete(8)
	s, err := Schedule(g, sys, Options{Priority: PriorityBLevel})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.ProcsUsed() < 6 {
		t.Errorf("fork-join width 6 used only %d PEs", s.ProcsUsed())
	}
}

// TestHeterogeneous: the heuristic respects per-PE execution costs.
func TestHeterogeneous(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 15, CCR: 0.5, Seed: 2})
	sys := procgraph.CompleteWith(3, procgraph.Config{Speeds: []float64{1.0, 3.0, 0.5}})
	s, err := Schedule(g, sys, Options{Priority: PriorityBLevel})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

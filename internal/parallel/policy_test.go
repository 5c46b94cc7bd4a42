package parallel

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/procgraph"
)

// TestEpsilonWithHashDistribution exercises the Aε* FOCAL queues together
// with hash-partitioned state routing — the combination whose cross-PPE
// state ping-pong re-pushes popped pointers into a FOCAL queue (see
// TestFocalQueueRePushPointer in core).
func TestEpsilonWithHashDistribution(t *testing.T) {
	for _, eps := range []float64{0.2, 0.5} {
		g := gen.MustRandom(gen.RandomConfig{V: 10, CCR: 1.0, Seed: 7})
		sys := procgraph.Complete(3)
		serial, err := core.Solve(g, sys, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := solve(g, sys, Options{Options: core.Options{Epsilon: eps}, PPEs: 4, Distribution: DistributeHash})
		if err != nil {
			t.Fatal(err)
		}
		if res.Schedule == nil {
			t.Fatalf("eps=%g: no schedule", eps)
		}
		if float64(res.Length) > (1+eps)*float64(serial.Length) {
			t.Errorf("eps=%g: length %d exceeds (1+ε)·%d", eps, res.Length, serial.Length)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Errorf("eps=%g: invalid schedule: %v", eps, err)
		}
	}
}

// TestPeriodFloorVariants asserts the communication period floor is a
// policy knob, not a correctness parameter: any floor yields the optimum.
func TestPeriodFloorVariants(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 10, CCR: 1.0, Seed: 31})
	sys := procgraph.Complete(3)
	serial, err := core.Solve(g, sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, floor := range []int{1, 2, 8, 64} {
		res, err := solve(g, sys, Options{PPEs: 3, PeriodFloor: floor})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Optimal || res.Length != serial.Length {
			t.Errorf("floor=%d: length=%d optimal=%v; want %d", floor, res.Length, res.Optimal, serial.Length)
		}
	}
}

// TestRoundsShrinkWithLargerFloor sanity-checks the exponential period
// schedule: a large floor means fewer, longer rounds.
func TestRoundsShrinkWithLargerFloor(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 12, CCR: 0.1, Seed: 5})
	sys := procgraph.Complete(3)
	small, err := solve(g, sys, Options{PPEs: 2, PeriodFloor: 1})
	if err != nil {
		t.Fatal(err)
	}
	large, err := solve(g, sys, Options{PPEs: 2, PeriodFloor: 256})
	if err != nil {
		t.Fatal(err)
	}
	if small.Length != large.Length {
		t.Fatalf("floor changed the optimum: %d vs %d", small.Length, large.Length)
	}
	if small.Stats.Rounds <= large.Stats.Rounds {
		t.Errorf("floor 1 ran %d rounds, floor 256 ran %d; expected more rounds at the small floor",
			small.Stats.Rounds, large.Stats.Rounds)
	}
}

// TestDeadlineCutoffReturnsFeasible asserts an expired deadline still
// yields a feasible schedule, not claimed optimal (unless trivially so).
func TestDeadlineCutoffReturnsFeasible(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 16, CCR: 10.0, Seed: 2})
	sys := procgraph.Complete(4)
	deadline := time.Now().Add(-time.Second)
	res, err := solve(g, sys, Options{Options: core.Options{Stop: func(int64) bool { return time.Now().After(deadline) }}, PPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule == nil {
		t.Fatal("no schedule under expired deadline")
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("invalid fallback schedule: %v", err)
	}
	if res.Optimal {
		t.Error("expired-deadline run claimed optimality")
	}
}

// TestInterconnectMismatchRejected asserts option validation.
func TestInterconnectMismatchRejected(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 8, CCR: 1.0, Seed: 1})
	sys := procgraph.Complete(3)
	if _, err := solve(g, sys, Options{PPEs: 4, Interconnect: procgraph.Ring(3)}); err == nil {
		t.Error("mismatched interconnect accepted")
	}
	if _, err := solve(g, sys, Options{PPEs: 0}); err == nil {
		t.Error("zero PPEs accepted")
	}
}

// TestManyPPEsOnTinyGraph exercises the k < q initial-distribution case
// (§3.3 case 3) where seeding cannot produce one state per PPE.
func TestManyPPEsOnTinyGraph(t *testing.T) {
	b := gen.PaperExample()
	serial, err := core.Solve(b, procgraph.Ring(3), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solve(b, procgraph.Ring(3), Options{PPEs: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Length != serial.Length {
		t.Fatalf("16 PPEs on 6 tasks: length=%d optimal=%v; want %d", res.Length, res.Optimal, serial.Length)
	}
}

// TestStatesSharedAccounting asserts load sharing is observable when PPEs
// outnumber the seed states.
func TestStatesSharedAccounting(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 10, CCR: 0.1, Seed: 13})
	sys := procgraph.Complete(3)
	res, err := solve(g, sys, Options{PPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatal("not optimal")
	}
	if res.Stats.Rounds > 2 && res.Stats.StatesShared == 0 {
		t.Error("multi-round run shared no states — load sharing never fired")
	}
}

package core

import (
	"errors"
	"testing"

	"repro/internal/procgraph"
	"repro/internal/taskgraph"
)

// chain3 is a three-task chain with the given weights and edge costs.
func chain3(w [3]int32, c01, c12 int32) *taskgraph.Graph {
	b := taskgraph.NewBuilder("chain3")
	for _, wi := range w {
		b.AddNode(wi)
	}
	b.AddEdge(0, 1, c01)
	b.AddEdge(1, 2, c12)
	return b.MustBuild()
}

// TestCostRangeBoundary holds CheckInstance to its bound: a chain whose
// worst-case length is exactly MaxCost solves to that length and
// validates, and one unit more is rejected with ErrCostRange by the check
// and by NewModel. The 1e9-weight chain, whose 3e9 length used to wrap to
// a negative finish time, is rejected too.
func TestCostRangeBoundary(t *testing.T) {
	third := int32(MaxCost / 3)
	inside := chain3([3]int32{third, third, MaxCost - 2*third}, 0, 0)
	sys := procgraph.Complete(1)
	if err := CheckInstance(inside, sys); err != nil {
		t.Fatalf("instance at the bound rejected: %v", err)
	}
	res, err := Solve(inside, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != MaxCost || !res.Optimal {
		t.Fatalf("length %d optimal %v, want %d proven", res.Length, res.Optimal, MaxCost)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}

	for name, g := range map[string]*taskgraph.Graph{
		"one past the bound": chain3([3]int32{third, third, MaxCost - 2*third + 1}, 0, 0),
		"1e9 weights":        chain3([3]int32{1e9, 1e9, 1e9}, 0, 0),
	} {
		if err := CheckInstance(g, sys); !errors.Is(err, ErrCostRange) {
			t.Errorf("%s: CheckInstance = %v, want ErrCostRange", name, err)
		}
		if _, err := NewModel(g, sys); !errors.Is(err, ErrCostRange) {
			t.Errorf("%s: NewModel = %v, want ErrCostRange", name, err)
		}
	}
}

// TestCostRangeUsesSystemCosts asserts the bound is taken on the costs the
// search sees: an instance that fits on unit-speed PEs is rejected once a
// slow PE scales its execution costs, or once hop distances scale its
// communication costs.
func TestCostRangeUsesSystemCosts(t *testing.T) {
	g := chain3([3]int32{MaxCost / 8, MaxCost / 8, MaxCost / 8}, MaxCost/8, 0)
	if err := CheckInstance(g, procgraph.Complete(3)); err != nil {
		t.Fatalf("unit-speed complete system: %v", err)
	}
	slow := procgraph.CompleteWith(3, procgraph.Config{Speeds: []float64{1, 1, 4}})
	if err := CheckInstance(g, slow); !errors.Is(err, ErrCostRange) {
		t.Errorf("slow PE: CheckInstance = %v, want ErrCostRange", err)
	}
	if err := CheckInstance(g, procgraph.Chain(8)); !errors.Is(err, ErrCostRange) {
		t.Errorf("7-hop chain: CheckInstance = %v, want ErrCostRange", err)
	}
}

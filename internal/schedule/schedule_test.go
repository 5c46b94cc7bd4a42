package schedule

import (
	"strings"
	"testing"

	"repro/internal/procgraph"
	"repro/internal/taskgraph"
)

func tinyGraph() *taskgraph.Graph {
	b := taskgraph.NewBuilder("tiny")
	a := b.AddNode(2)
	c := b.AddNode(3)
	b.AddEdge(a, c, 4)
	return b.MustBuild()
}

func TestValidateAccepts(t *testing.T) {
	g := tinyGraph()
	sys := procgraph.Complete(2)
	cases := map[string][]Placement{
		"same-pe":     {{Proc: 0, Start: 0, Finish: 2}, {Proc: 0, Start: 2, Finish: 5}},
		"cross-pe":    {{Proc: 0, Start: 0, Finish: 2}, {Proc: 1, Start: 6, Finish: 9}},
		"cross-slack": {{Proc: 0, Start: 0, Finish: 2}, {Proc: 1, Start: 10, Finish: 13}},
	}
	for name, place := range cases {
		s := New(g, sys, place)
		if err := s.Validate(); err != nil {
			t.Errorf("%s: unexpected error: %v", name, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	g := tinyGraph()
	sys := procgraph.Complete(2)
	cases := map[string][]Placement{
		"missing-comm":   {{Proc: 0, Start: 0, Finish: 2}, {Proc: 1, Start: 3, Finish: 6}},
		"precedence":     {{Proc: 0, Start: 0, Finish: 2}, {Proc: 0, Start: 1, Finish: 4}},
		"wrong-duration": {{Proc: 0, Start: 0, Finish: 3}, {Proc: 0, Start: 3, Finish: 6}},
		"bad-pe":         {{Proc: 5, Start: 0, Finish: 2}, {Proc: 0, Start: 2, Finish: 5}},
		"negative-start": {{Proc: 0, Start: -1, Finish: 1}, {Proc: 0, Start: 2, Finish: 5}},
	}
	for name, place := range cases {
		s := New(g, sys, place)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

// TestValidateRejectsWrappedFinish: a 3-task chain of weight 1e9 run back
// to back on one PE has a true makespan of 3e9, past int32. Its last finish
// wraps to -1294967296, and int32 Finish-Start arithmetic wraps back to the
// right duration; Validate must reject the placement instead.
func TestValidateRejectsWrappedFinish(t *testing.T) {
	b := taskgraph.NewBuilder("chain-1e9")
	n0 := b.AddNode(1e9)
	n1 := b.AddNode(1e9)
	n2 := b.AddNode(1e9)
	b.AddEdge(n0, n1, 0)
	b.AddEdge(n1, n2, 0)
	g := b.MustBuild()
	const wrapped = int32(-1294967296) // int32(3e9)
	s := New(g, procgraph.Complete(1), []Placement{
		{Proc: 0, Start: 0, Finish: 1e9},
		{Proc: 0, Start: 1e9, Finish: 2e9},
		{Proc: 0, Start: 2e9, Finish: wrapped},
	})
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted a placement whose finish wrapped past int32")
	} else if !strings.Contains(err.Error(), "before it starts") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestValidateOverlap(t *testing.T) {
	b := taskgraph.NewBuilder("pair")
	b.AddNode(5)
	b.AddNode(5)
	g := b.MustBuild()
	sys := procgraph.Complete(2)
	s := New(g, sys, []Placement{{Proc: 0, Start: 0, Finish: 5}, {Proc: 0, Start: 3, Finish: 8}})
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("expected overlap error, got %v", err)
	}
	// Same windows on different PEs are fine.
	s2 := New(g, sys, []Placement{{Proc: 0, Start: 0, Finish: 5}, {Proc: 1, Start: 0, Finish: 5}})
	if err := s2.Validate(); err != nil {
		t.Errorf("parallel placement should validate: %v", err)
	}
}

func TestValidateHopScaledComm(t *testing.T) {
	g := tinyGraph()
	sys := procgraph.Chain(3) // dist(0,2) = 2, edge cost 4 -> delay 8
	ok := New(g, sys, []Placement{{Proc: 0, Start: 0, Finish: 2}, {Proc: 2, Start: 10, Finish: 13}})
	if err := ok.Validate(); err != nil {
		t.Errorf("hop-scaled schedule should validate: %v", err)
	}
	bad := New(g, sys, []Placement{{Proc: 0, Start: 0, Finish: 2}, {Proc: 2, Start: 6, Finish: 9}})
	if err := bad.Validate(); err == nil {
		t.Error("under-delayed hop-scaled schedule should fail")
	}
}

func TestValidateHeterogeneousDuration(t *testing.T) {
	g := tinyGraph()
	sys := procgraph.CompleteWith(2, procgraph.Config{Speeds: []float64{1.0, 2.0}})
	// Node 0 (w=2) on PE1 must take 4 time units.
	ok := New(g, sys, []Placement{{Proc: 1, Start: 0, Finish: 4}, {Proc: 1, Start: 4, Finish: 10}})
	if err := ok.Validate(); err != nil {
		t.Errorf("heterogeneous durations should validate: %v", err)
	}
	bad := New(g, sys, []Placement{{Proc: 1, Start: 0, Finish: 2}, {Proc: 1, Start: 2, Finish: 8}})
	if err := bad.Validate(); err == nil {
		t.Error("wrong heterogeneous duration should fail")
	}
}

func TestLengthAndMetrics(t *testing.T) {
	g := tinyGraph()
	sys := procgraph.Complete(2)
	s := New(g, sys, []Placement{{Proc: 0, Start: 0, Finish: 2}, {Proc: 0, Start: 2, Finish: 5}})
	if s.Length != 5 {
		t.Errorf("length = %d, want 5", s.Length)
	}
	if s.ProcsUsed() != 1 {
		t.Errorf("procs used = %d, want 1", s.ProcsUsed())
	}
	if eff := s.Efficiency(); eff != 1.0 {
		t.Errorf("efficiency = %v, want 1.0", eff)
	}
}

func TestGanttAndTable(t *testing.T) {
	g := tinyGraph()
	sys := procgraph.Complete(2)
	s := New(g, sys, []Placement{{Proc: 0, Start: 0, Finish: 2}, {Proc: 1, Start: 6, Finish: 9}})
	gantt := s.Gantt(8)
	for _, want := range []string{"PE 0", "PE 1", "n1", "n2", "schedule length = 9"} {
		if !strings.Contains(gantt, want) {
			t.Errorf("gantt missing %q:\n%s", want, gantt)
		}
	}
	table := s.Table()
	if !strings.Contains(table, "n1") || !strings.Contains(table, "start") {
		t.Errorf("table output malformed:\n%s", table)
	}
	if !strings.Contains(s.String(), "length=9") {
		t.Errorf("summary malformed: %s", s.String())
	}
}

func TestValidateShapeErrors(t *testing.T) {
	g := tinyGraph()
	sys := procgraph.Complete(2)
	s := New(g, sys, []Placement{{Proc: 0, Start: 0, Finish: 2}})
	if err := s.Validate(); err == nil {
		t.Error("placement count mismatch should fail")
	}
	s2 := &Schedule{}
	if err := s2.Validate(); err == nil {
		t.Error("missing graph/system should fail")
	}
}

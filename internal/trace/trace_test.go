package trace

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/procgraph"
)

// fig3Tree runs the serial A* on the worked example with a recorder
// attached, as the paper does for Figure 3.
func fig3Tree(t *testing.T) (*Recorder, *core.Result) {
	t.Helper()
	g := gen.PaperExample()
	rec := NewRecorder(g)
	res, err := core.Solve(g, procgraph.Ring(3), core.Options{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	return rec, res
}

// TestFigure3RootExpansion asserts the exact first two levels of Figure 3:
// processor isomorphism collapses the root expansion to the single state
// n1→PE0 with f = 2 + 10, whose own expansion yields exactly the four
// states {n2→PE0 5+7, n2→PE1 6+7, n4→PE0 6+2, n4→PE1 8+2} (n3 suppressed
// by node equivalence, PE2 by isomorphism).
func TestFigure3RootExpansion(t *testing.T) {
	rec, res := fig3Tree(t)
	if res.Length != 14 {
		t.Fatalf("optimal length %d; want 14", res.Length)
	}
	root := rec.Root()
	if root == nil {
		t.Fatal("no root recorded")
	}
	if len(root.Children) != 1 {
		t.Fatalf("root has %d children; want 1 (processor isomorphism)", len(root.Children))
	}
	c := root.Children[0]
	s := c.State
	if s.Node() != 0 || s.Proc() != 0 || s.G() != 2 || s.H() != 10 {
		t.Fatalf("root child is %s→PE%d f=%d+%d; want n1→PE0 f=2+10",
			"n"+string(rune('1'+s.Node())), s.Proc(), s.G(), s.H())
	}
	var got []string
	for _, k := range c.sortedChildren() {
		ks := k.State
		got = append(got, rec.label(k))
		_ = ks
	}
	sort.Strings(got)
	want := []string{
		"n2 → PE 0  f = 5 + 7",
		"n2 → PE 1  f = 6 + 7",
		"n4 → PE 0  f = 6 + 2",
		"n4 → PE 1  f = 8 + 2",
	}
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("level 2 has %d states %v; want %v", len(got), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("level 2 states %v; want %v", got, want)
		}
	}
}

// TestFigure3Counts asserts the recorder agrees with the engine's own
// statistics and that the tree is drastically smaller than the >=3^6
// exhaustive tree the paper cites.
func TestFigure3Counts(t *testing.T) {
	rec, res := fig3Tree(t)
	if rec.ExpandedCount() != res.Stats.Expanded {
		t.Errorf("recorded %d expansions, engine counted %d", rec.ExpandedCount(), res.Stats.Expanded)
	}
	wantGen := res.Stats.Generated - res.Stats.Duplicates
	if rec.GeneratedCount() != wantGen {
		t.Errorf("recorded %d generations, engine emitted %d", rec.GeneratedCount(), wantGen)
	}
	if rec.GeneratedCount() >= 729 {
		t.Errorf("tree has %d states; pruning should keep it far below 3^6 = 729", rec.GeneratedCount())
	}
	if rec.GeneratedCount() > 60 {
		t.Errorf("tree has %d states; the paper's Figure 3 tree has 26 — ours should be the same order", rec.GeneratedCount())
	}
}

// TestFigure3GoalNode asserts a goal leaf with f = 14 + 0 is in the tree.
func TestFigure3GoalNode(t *testing.T) {
	rec, _ := fig3Tree(t)
	v := 6
	var foundGoal bool
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Goal(v) && n.State.F() == 14 && n.State.H() == 0 {
			foundGoal = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(rec.Root())
	if !foundGoal {
		t.Fatal("no goal node with f = 14 + 0 in the recorded tree")
	}
}

// TestASCIIRendering golden-checks fragments of the Figure 3 rendering.
func TestASCIIRendering(t *testing.T) {
	rec, _ := fig3Tree(t)
	var b strings.Builder
	if err := rec.WriteASCII(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Φ (initial state)",
		"n1 → PE 0  f = 2 + 10",
		"n2 → PE 0  f = 5 + 7",
		"[expansion 0]", // the root
		"◀ goal",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCII rendering missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); int64(lines) != rec.GeneratedCount()+1 {
		t.Errorf("rendering has %d lines; want %d states + root", lines, rec.GeneratedCount()+1)
	}
}

// TestDOTRendering sanity-checks the Graphviz output: one digraph, one
// node and one edge statement per state (root has no in-edge).
func TestDOTRendering(t *testing.T) {
	rec, _ := fig3Tree(t)
	var b strings.Builder
	if err := rec.WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "digraph searchtree {") {
		t.Fatalf("not a digraph:\n%s", out)
	}
	nodes := strings.Count(out, "[label=")
	edges := strings.Count(out, " -> ")
	if int64(nodes) != rec.GeneratedCount()+1 {
		t.Errorf("DOT has %d nodes; want %d", nodes, rec.GeneratedCount()+1)
	}
	if int64(edges) != rec.GeneratedCount() {
		t.Errorf("DOT has %d edges; want %d", edges, rec.GeneratedCount())
	}
	if !strings.Contains(out, "peripheries=2") {
		t.Error("DOT marks no goal node")
	}
}

// TestFigure5ParallelTrace records the 2-PPE parallel run of the worked
// example (the paper's Figure 5 experiment, reported speedup 1.7) and
// asserts the structural invariants: same optimum, expansions stamped with
// both PPEs, per-PPE expansion orders both starting at 0, and counts that
// agree with the engine.
func TestFigure5ParallelTrace(t *testing.T) {
	g := gen.PaperExample()
	rec := NewRecorder(g)
	res, err := engine.Solve(context.Background(), "parallel", g, procgraph.Ring(3), engine.Config{
		PPEs:      2,
		TracerFor: rec.ForPPE,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != 14 || !res.Optimal {
		t.Fatalf("parallel run: length=%d optimal=%v; want 14, true", res.Length, res.Optimal)
	}
	if rec.ExpandedCount() != res.Stats.Expanded {
		t.Errorf("recorded %d expansions, engine counted %d", rec.ExpandedCount(), res.Stats.Expanded)
	}

	ppes := map[int]int{} // ppe -> expansions
	minOrder := map[int]int{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.ExpandOrder >= 0 {
			ppes[n.ExpandPPE]++
			if o, ok := minOrder[n.ExpandPPE]; !ok || n.ExpandOrder < o {
				minOrder[n.ExpandPPE] = n.ExpandOrder
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(rec.Root())
	if len(ppes) == 0 {
		t.Fatal("no expansions recorded")
	}
	for ppe := range ppes {
		if ppe != 0 && ppe != 1 {
			t.Errorf("expansion stamped with unknown PPE %d", ppe)
		}
		if minOrder[ppe] != 0 {
			t.Errorf("PPE %d expansion orders start at %d; want 0", ppe, minOrder[ppe])
		}
	}

	var b strings.Builder
	if err := rec.WriteASCII(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "[PPE 0, expansion 0]") {
		t.Errorf("parallel ASCII rendering missing PPE annotations:\n%s", b.String())
	}
}

// TestRecorderIgnoresReExpansion asserts a state expanded twice (possible
// for transferred states in the parallel engine) keeps its first stamp.
func TestRecorderIgnoresReExpansion(t *testing.T) {
	g := gen.PaperExample()
	rec := NewRecorder(g)
	root := core.Root()
	rec.Expanded(root)
	rec.Expanded(root)
	if rec.ExpandedCount() != 1 {
		t.Fatalf("re-expansion recorded twice: count %d", rec.ExpandedCount())
	}
	if rec.Root().ExpandOrder != 0 {
		t.Fatalf("root order %d; want 0", rec.Root().ExpandOrder)
	}
}

// TestEmptyRecorder asserts rendering an empty trace is well-defined.
func TestEmptyRecorder(t *testing.T) {
	rec := NewRecorder(gen.PaperExample())
	var b strings.Builder
	if err := rec.WriteASCII(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "empty trace") {
		t.Errorf("unexpected empty rendering: %q", b.String())
	}
	if err := rec.WriteDOT(&b); err == nil {
		t.Error("WriteDOT on empty trace should error")
	}
}

// TestRecordedTreeOutlivesSolve asserts a Recorder's tree still reads the
// same after ten later solves. Those solves reuse the arena that held the
// recorded states, so the tree must keep copies of them, not the engine's
// *core.State pointers.
func TestRecordedTreeOutlivesSolve(t *testing.T) {
	rec, _ := fig3Tree(t)
	render := func() string {
		var b strings.Builder
		if err := rec.WriteASCII(&b); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteDOT(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	before := render()
	for seed := uint64(1); seed <= 10; seed++ {
		g := gen.MustRandom(gen.RandomConfig{V: 9, CCR: 1, Seed: seed})
		if _, err := core.Solve(g, procgraph.Ring(3), core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if after := render(); after != before {
		t.Fatalf("recorded tree changed after later solves:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

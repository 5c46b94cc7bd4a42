package stg_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/procgraph"
	"repro/internal/stg"
)

// sample is a small STG instance in the conventional dummy-wrapped layout:
// entry task 0 and exit task 5 have zero cost.
const sample = `
6   # four real tasks plus dummies
0 0 0
1 3 1 0
2 4 1 0
3 2 2 1 2
4 5 1 1
5 0 2 3 4
`

// TestReadSample parses the sample and checks the spliced graph.
func TestReadSample(t *testing.T) {
	g, err := stg.Read(strings.NewReader(sample), stg.ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 {
		t.Fatalf("kept %d nodes; want 4 (dummies spliced)", g.NumNodes())
	}
	// Real tasks 1..4 become 0..3 with weights 3,4,2,5.
	wantW := []int32{3, 4, 2, 5}
	for n, w := range wantW {
		if g.Weight(int32(n)) != w {
			t.Errorf("node %d weight %d; want %d", n, g.Weight(int32(n)), w)
		}
	}
	// Edges 1->3, 2->3, 1->4 survive; edges through dummies vanish.
	if g.NumEdges() != 3 {
		t.Fatalf("kept %d edges; want 3", g.NumEdges())
	}
	if _, ok := g.EdgeCost(0, 2); !ok {
		t.Error("missing edge t1->t3")
	}
	if _, ok := g.EdgeCost(1, 2); !ok {
		t.Error("missing edge t2->t3")
	}
	if _, ok := g.EdgeCost(0, 3); !ok {
		t.Error("missing edge t1->t4")
	}
}

// TestReadKeepDummies retains the dummies with clamped weight 1.
func TestReadKeepDummies(t *testing.T) {
	g, err := stg.Read(strings.NewReader(sample), stg.ImportOptions{KeepDummies: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 6 {
		t.Fatalf("kept %d nodes; want 6", g.NumNodes())
	}
	if g.Weight(0) != 1 || g.Weight(5) != 1 {
		t.Errorf("dummy weights %d, %d; want clamped to 1", g.Weight(0), g.Weight(5))
	}
	if g.NumEdges() != 7 {
		t.Errorf("kept %d edges; want 7", g.NumEdges())
	}
}

// TestReadEdgeCost synthesizes a uniform communication cost.
func TestReadEdgeCost(t *testing.T) {
	g, err := stg.Read(strings.NewReader(sample), stg.ImportOptions{EdgeCost: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if e.Cost != 9 {
			t.Fatalf("edge %d->%d cost %d; want 9", e.From, e.To, e.Cost)
		}
	}
}

// TestReadDummyChain splices consecutive dummies transitively.
func TestReadDummyChain(t *testing.T) {
	const chain = `
5
0 4 0
1 0 1 0
2 0 1 1
3 6 1 2
4 5 1 0
`
	g, err := stg.Read(strings.NewReader(chain), stg.ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("kept %d nodes; want 3", g.NumNodes())
	}
	// Precedence 0 -> 3 must survive through the dummy chain 1 -> 2.
	if _, ok := g.EdgeCost(0, 1); !ok {
		t.Error("transitive edge through dummy chain missing")
	}
}

// TestReadDummyLattice splices a deep lattice of dummies — every task
// lists every earlier one as a predecessor — without walking each of the
// 2^58 dummy paths between the two real tasks, which end up joined by one
// edge.
func TestReadDummyLattice(t *testing.T) {
	const n = 60
	var b strings.Builder
	fmt.Fprintln(&b, n)
	for i := 0; i < n; i++ {
		w := 0
		if i == 0 || i == n-1 {
			w = 5
		}
		fmt.Fprintf(&b, "%d %d %d", i, w, i)
		for p := 0; p < i; p++ {
			fmt.Fprintf(&b, " %d", p)
		}
		fmt.Fprintln(&b)
	}
	g, err := stg.Read(strings.NewReader(b.String()), stg.ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("kept %d nodes and %d edges; want 2 and 1", g.NumNodes(), g.NumEdges())
	}
	if _, ok := g.EdgeCost(0, 1); !ok {
		t.Error("edge through the dummy lattice missing")
	}
}

// TestRoundTrip exports a generated graph and re-imports it: same node
// count, weights, and precedence (edge costs are lossy by design).
func TestRoundTrip(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 18, CCR: 1.0, Seed: 11})
	var b strings.Builder
	if err := stg.Write(&b, g); err != nil {
		t.Fatal(err)
	}
	back, err := stg.Read(strings.NewReader(b.String()), stg.ImportOptions{})
	if err != nil {
		t.Fatalf("re-import failed: %v\n%s", err, b.String())
	}
	if back.NumNodes() != g.NumNodes() {
		t.Fatalf("round trip: %d nodes; want %d", back.NumNodes(), g.NumNodes())
	}
	for n := 0; n < g.NumNodes(); n++ {
		if back.Weight(int32(n)) != g.Weight(int32(n)) {
			t.Errorf("node %d weight %d; want %d", n, back.Weight(int32(n)), g.Weight(int32(n)))
		}
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d edges; want %d", back.NumEdges(), g.NumEdges())
	}
	for _, e := range g.Edges() {
		if _, ok := back.EdgeCost(e.From, e.To); !ok {
			t.Errorf("round trip lost edge %d->%d", e.From, e.To)
		}
	}
}

// TestRoundTripPaperExample round-trips the worked example and re-solves
// it under the no-communication STG model (cost structure changes, but the
// instance must stay schedulable end to end).
func TestRoundTripPaperExample(t *testing.T) {
	g := gen.PaperExample()
	var b strings.Builder
	if err := stg.Write(&b, g); err != nil {
		t.Fatal(err)
	}
	back, err := stg.Read(strings.NewReader(b.String()), stg.ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(back, procgraph.Ring(3), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatal("re-imported instance did not solve to optimality")
	}
	// Without communication costs the DAG's critical path (2+3+5+2 = 12)
	// is achievable and optimal.
	if res.Length != 12 {
		t.Fatalf("no-communication optimum %d; want 12", res.Length)
	}
}

// TestReadErrors exercises the failure paths.
func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"comment only", "# nothing\n"},
		{"zero count", "0\n"},
		{"negative count", "-3\n"},
		{"truncated record", "2\n0 5 0\n"},
		{"non-integer", "1\n0 five 0\n"},
		{"id out of order", "2\n1 5 0\n0 5 0\n"},
		{"negative weight", "1\n0 -5 0\n"},
		{"pred out of range", "2\n0 5 0\n1 5 1 7\n"},
		{"self pred", "1\n0 5 1 0\n"},
		{"forward pred", "2\n0 5 1 1\n1 5 0\n"},
		{"trailing garbage", "1\n0 5 0\n9 9 9 9 9\n1 1 1\n"},
		{"all dummies", "2\n0 0 0\n1 0 1 0\n"},
	}
	for _, c := range cases {
		if _, err := stg.Read(strings.NewReader(c.in), stg.ImportOptions{}); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestReadWithoutDummyWrap accepts instances whose first/last tasks are
// real (no dummy convention).
func TestReadWithoutDummyWrap(t *testing.T) {
	const plain = `
3
0 2 0
1 3 1 0
2 4 1 1
`
	g, err := stg.Read(strings.NewReader(plain), stg.ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got %d nodes / %d edges; want 3 / 2", g.NumNodes(), g.NumEdges())
	}
}

// TestNameOption sets the graph name.
func TestNameOption(t *testing.T) {
	g, err := stg.Read(strings.NewReader(sample), stg.ImportOptions{Name: "bench-54"})
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "bench-54" {
		t.Fatalf("name %q; want bench-54", g.Name())
	}
}

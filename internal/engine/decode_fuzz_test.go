package engine_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/listsched"
	"repro/internal/procgraph"
	"repro/internal/stg"
	"repro/internal/taskgraph"
)

// fuzzSeeds are the generator outputs both decoder targets start from:
// the Figure 1 example, §4.1 random graphs small enough for the
// brute-force cross-check and one beyond it, and structured shapes.
func fuzzSeeds(t testing.TB) []*taskgraph.Graph {
	seeds := []*taskgraph.Graph{
		gen.PaperExample(),
		gen.MustRandom(gen.RandomConfig{V: 4, CCR: 1, Seed: 1}),
		gen.MustRandom(gen.RandomConfig{V: 6, CCR: 10, MeanOutDeg: 2, Seed: 2}),
		gen.MustRandom(gen.RandomConfig{V: 12, CCR: 0.1, Seed: 3}),
	}
	for _, mk := range []func() (*taskgraph.Graph, error){
		func() (*taskgraph.Graph, error) { return gen.ForkJoin(2, 2, 3, 5) },
		func() (*taskgraph.Graph, error) { return gen.GaussianElimination(3, 4, 2) },
	} {
		g, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, g)
	}
	return seeds
}

// checkDecoded is the decoders' property: an input the decoder accepts and
// admission (core.CheckInstance on complete:3) accepts is solvable. U's
// schedule (listsched.UpperBound) is valid, and astar under a
// 300-expansion budget returns a valid schedule no longer than U. For
// v <= 6, neither U nor astar's length beats the brute-force optimum, and a
// result proven optimal has its length. An input either step rejects is
// fine; a panic or an invalid schedule is not.
func checkDecoded(t *testing.T, g *taskgraph.Graph) {
	sys := procgraph.Complete(3)
	if core.CheckInstance(g, sys) != nil {
		return
	}
	ub, err := listsched.UpperBound(g, sys)
	if err != nil {
		t.Fatalf("upper bound on an admitted instance: %v", err)
	}
	if err := ub.Validate(); err != nil {
		t.Fatalf("U's schedule is invalid: %v", err)
	}
	res, err := engine.Solve(context.Background(), "astar", g, sys, engine.Config{MaxExpanded: 300})
	if err != nil {
		t.Fatalf("astar on an admitted instance: %v", err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("astar returned an invalid schedule: %v", err)
	}
	if res.Length > ub.Length {
		t.Fatalf("astar returned length %d, longer than U = %d", res.Length, ub.Length)
	}
	if g.NumNodes() > 6 {
		return
	}
	want, err := bruteforce.Solve(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case ub.Length < want.Length:
		t.Fatalf("U = %d is below the brute-force optimum %d", ub.Length, want.Length)
	case res.Length < want.Length:
		t.Fatalf("astar returned length %d, below the brute-force optimum %d", res.Length, want.Length)
	case res.Optimal && res.Length != want.Length:
		t.Fatalf("astar proved length %d optimal, brute force finds %d", res.Length, want.Length)
	}
}

// FuzzParseGraph feeds arbitrary bytes to the native text decoder.
func FuzzParseGraph(f *testing.F) {
	for _, g := range fuzzSeeds(f) {
		var buf bytes.Buffer
		if err := taskgraph.Format(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := taskgraph.Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkDecoded(t, g)
	})
}

// FuzzReadSTG feeds arbitrary bytes, and an edge cost, to the Standard
// Task Graph Set decoder.
func FuzzReadSTG(f *testing.F) {
	for i, g := range fuzzSeeds(f) {
		var buf bytes.Buffer
		if err := stg.Write(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), int32(i%3), i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, data []byte, edgeCost int32, keepDummies bool) {
		g, err := stg.Read(bytes.NewReader(data), stg.ImportOptions{EdgeCost: edgeCost, KeepDummies: keepDummies})
		if err != nil {
			return
		}
		checkDecoded(t, g)
	})
}

// FuzzGraphJSON feeds arbitrary bytes to the JSON graph decoder, the form
// the daemon's submit endpoint, job store and cluster leases carry.
func FuzzGraphJSON(f *testing.F) {
	for _, g := range fuzzSeeds(f) {
		data, err := g.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := taskgraph.FromJSON(data)
		if err != nil {
			return
		}
		checkDecoded(t, g)
	})
}

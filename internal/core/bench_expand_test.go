package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/procgraph"
)

// BenchmarkSerialAStarSolve measures the whole serial A* loop — model
// build excluded, OPEN/visited/arena included — on a fixed §4.1 instance.
// allocs/op here is the number DESIGN.md's state-memory section records:
// the arena + scratch refactor must keep it at least 2× below the
// per-child-new(State) baseline.
func BenchmarkSerialAStarSolve(b *testing.B) {
	g := gen.MustRandom(gen.RandomConfig{V: 14, CCR: 1.0, Seed: 5})
	sys := procgraph.Complete(4)
	m, err := NewModel(g, sys)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveModel(m, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// steadyCases are the expander configurations the steady-state benchmark
// and its zero-alloc test run: the paper heuristic on complete:4, and HLoad
// on complete:16, the shape of the benchmark's paper-approx workload, whose
// per-expansion arrival and critical-path pass must allocate nothing either.
var steadyCases = []struct {
	name  string
	procs int
	opt   Options
}{
	{"paper/complete:4", 4, Options{}},
	{"load/complete:16", 16, Options{HFunc: HLoad}},
}

// BenchmarkExpandSteadyState measures one Expand call in the
// duplicate-saturated steady state: every child the expander generates is
// already in the visited table, is rejected, and its arena slot is
// recycled. A 0 allocs/op result proves the expansion hot path — child
// construction, isomorphism/equivalence filtering, arrival rows and
// heuristic bounds, duplicate detection — performs no heap allocation at
// all.
func BenchmarkExpandSteadyState(b *testing.B) {
	for _, tc := range steadyCases {
		b.Run(tc.name, func(b *testing.B) {
			exp, visited, pool := steadyState(b, tc.procs, tc.opt)
			discard := func(*State) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exp.Expand(pool[i%len(pool)], visited, discard)
			}
		})
	}
}

// TestExpandZeroAlloc is the tier-1 form of BenchmarkExpandSteadyState:
// the 0 allocs/op claim is checked here on every test run.
func TestExpandZeroAlloc(t *testing.T) {
	for _, tc := range steadyCases {
		t.Run(tc.name, func(t *testing.T) {
			exp, visited, pool := steadyState(t, tc.procs, tc.opt)
			discard := func(*State) {}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				exp.Expand(pool[i%len(pool)], visited, discard)
				i++
			})
			if allocs != 0 {
				t.Fatalf("Expand in the duplicate-saturated steady state: %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// steadyState builds the duplicate-saturated setup of the expansion
// benchmarks: an expander over a v=24 §4.1 graph on complete:procs, a
// visited table, and up to 256 states whose children are all already in it.
func steadyState(tb testing.TB, procs int, opt Options) (*Expander, *Visited, []*State) {
	tb.Helper()
	g := gen.MustRandom(gen.RandomConfig{V: 24, CCR: 1.0, Seed: 7})
	m, err := NewModel(g, procgraph.Complete(procs))
	if err != nil {
		tb.Fatal(err)
	}
	var stats Stats
	exp := m.NewExpander(opt, &stats)
	visited := NewVisited()
	var pool []*State
	collect := func(c *State) { pool = append(pool, c) }
	exp.Expand(Root(), visited, collect)
	for i := 0; i < len(pool) && len(pool) < 256; i++ {
		exp.Expand(pool[i], visited, collect)
	}
	if len(pool) == 0 {
		tb.Fatal("no states to expand")
	}
	return exp, visited, pool
}

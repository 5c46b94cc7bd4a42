// Benchmarks regenerating the paper's evaluation (§4) at laptop scale, one
// family per table/figure, plus micro-benchmarks of the engine hot paths.
// The full parameter sweeps (the paper's sizes up to v=32) live behind
// cmd/icpp98bench; these testing.B benches pin small instances that solve to
// proven optimality in milliseconds so -bench runs terminate quickly while
// preserving the paper's comparisons:
//
//	BenchmarkTable1_*   — serial A* (pruned/unpruned) vs Chen & Yu B&B
//	BenchmarkFigure6_*  — parallel A* across PPE counts
//	BenchmarkFigure7_*  — parallel Aε* across ε
//	BenchmarkAblation_* — individual pruning techniques
package repro

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/listsched"
	"repro/internal/parallel"
	"repro/internal/procgraph"
	"repro/internal/stg"
	"repro/internal/taskgraph"
)

// benchInstance pins one §4.1 workload cell (small enough to solve exactly).
func benchInstance(ccr float64, v int) (*taskgraph.Graph, *procgraph.System) {
	g := gen.MustRandom(gen.RandomConfig{V: v, CCR: ccr, Seed: 1998 ^ (uint64(v) * 0xBF58476D1CE4E5B9)})
	return g, procgraph.Complete(3)
}

func benchSolveSerial(b *testing.B, ccr float64, v int, opt core.Options) {
	b.Helper()
	g, sys := benchInstance(ccr, v)
	b.ReportAllocs()
	var expanded int64
	for i := 0; i < b.N; i++ {
		res, err := core.Solve(g, sys, opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Schedule == nil {
			b.Fatal("no schedule")
		}
		expanded = res.Stats.Expanded
	}
	b.ReportMetric(float64(expanded), "states/op")
}

// BenchmarkTable1_AStar measures the pruned serial A* (the paper's "A*"
// column) per CCR.
func BenchmarkTable1_AStar(b *testing.B) {
	for _, ccr := range []float64{0.1, 1.0, 10.0} {
		b.Run(fmt.Sprintf("ccr=%g/v=10", ccr), func(b *testing.B) {
			benchSolveSerial(b, ccr, 10, core.Options{})
		})
	}
}

// BenchmarkTable1_AStarFull measures the unpruned serial A* (the paper's
// "A* full" column) per CCR.
func BenchmarkTable1_AStarFull(b *testing.B) {
	for _, ccr := range []float64{0.1, 1.0, 10.0} {
		b.Run(fmt.Sprintf("ccr=%g/v=10", ccr), func(b *testing.B) {
			benchSolveSerial(b, ccr, 10, core.Options{Disable: core.DisableAllPruning})
		})
	}
}

// BenchmarkTable1_ChenBnB measures the Chen & Yu baseline (the paper's
// "Chen" column) per CCR.
func BenchmarkTable1_ChenBnB(b *testing.B) {
	for _, ccr := range []float64{0.1, 1.0, 10.0} {
		b.Run(fmt.Sprintf("ccr=%g/v=10", ccr), func(b *testing.B) {
			g, sys := benchInstance(ccr, 10)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := engine.Solve(context.Background(), "bnb", g, sys, engine.Config{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Schedule == nil {
					b.Fatal("no schedule")
				}
			}
		})
	}
}

// BenchmarkFigure6_ParallelAStar measures the parallel A* across PPE counts
// (fixed instance, paper policies, comm floor 2).
func BenchmarkFigure6_ParallelAStar(b *testing.B) {
	g, sys := benchInstance(0.1, 10)
	for _, q := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("ppes=%d", q), func(b *testing.B) {
			b.ReportAllocs()
			var crit int64
			for i := 0; i < b.N; i++ {
				res, err := engine.Solve(context.Background(), "parallel", g, sys, engine.Config{PPEs: q})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Optimal {
					b.Fatal("not optimal")
				}
				crit = res.Stats.CriticalWork
			}
			b.ReportMetric(float64(crit), "critwork/op")
		})
	}
}

// BenchmarkFigure6_HashDistribution measures the ref.-[15] hash-partitioned
// variant across PPE counts.
func BenchmarkFigure6_HashDistribution(b *testing.B) {
	g, sys := benchInstance(0.1, 10)
	for _, q := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("ppes=%d", q), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := engine.Solve(context.Background(), "parallel", g, sys, engine.Config{
					PPEs: q, Distribution: parallel.DistributeHash,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Optimal {
					b.Fatal("not optimal")
				}
			}
		})
	}
}

// BenchmarkFigure7_EpsilonSerial measures the serial Aε* against exact A*
// across ε (the time-ratio panel of Figure 7, serial form).
func BenchmarkFigure7_EpsilonSerial(b *testing.B) {
	g, sys := benchInstance(1.0, 10)
	for _, eps := range []float64{0, 0.2, 0.5} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(g, sys, core.Options{Epsilon: eps})
				if err != nil {
					b.Fatal(err)
				}
				if res.Schedule == nil {
					b.Fatal("no schedule")
				}
			}
		})
	}
}

// BenchmarkFigure7_EpsilonParallel measures the parallel Aε* (the paper
// pairs Figure 7 with 16 PPEs; 4 keeps the bench fast).
func BenchmarkFigure7_EpsilonParallel(b *testing.B) {
	g, sys := benchInstance(1.0, 10)
	for _, eps := range []float64{0, 0.2, 0.5} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := engine.Solve(context.Background(), "parallel", g, sys, engine.Config{Epsilon: eps, PPEs: 4})
				if err != nil {
					b.Fatal(err)
				}
				if res.Schedule == nil {
					b.Fatal("no schedule")
				}
			}
		})
	}
}

// BenchmarkAblation_Prunings measures each §3.2 pruning disabled in turn.
func BenchmarkAblation_Prunings(b *testing.B) {
	variants := []struct {
		name string
		opt  core.Options
	}{
		{"full", core.Options{}},
		{"no-isomorphism", core.Options{Disable: core.DisableIsomorphism}},
		{"no-equivalence", core.Options{Disable: core.DisableEquivalence}},
		{"no-upper-bound", core.Options{Disable: core.DisableUpperBound}},
		{"no-priority", core.Options{Disable: core.DisablePriorityOrder}},
		{"none", core.Options{Disable: core.DisableAllPruning}},
		{"hplus", core.Options{HFunc: core.HPlus}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			benchSolveSerial(b, 1.0, 10, v.opt)
		})
	}
}

// BenchmarkAblation_Engines compares the optimal engines on one instance:
// A* (the paper's), depth-first branch-and-bound with and without the
// duplicate table, and IDA* — the memory/time trade the DESIGN.md engine
// ablation calls out.
func BenchmarkAblation_Engines(b *testing.B) {
	g, sys := benchInstance(1.0, 10)
	run := func(b *testing.B, solve func() (*core.Result, error)) {
		b.Helper()
		b.ReportAllocs()
		var expanded int64
		for i := 0; i < b.N; i++ {
			res, err := solve()
			if err != nil {
				b.Fatal(err)
			}
			if !res.Optimal {
				b.Fatal("not optimal")
			}
			expanded = res.Stats.Expanded
		}
		b.ReportMetric(float64(expanded), "states/op")
	}
	b.Run("astar", func(b *testing.B) {
		run(b, func() (*core.Result, error) { return core.Solve(g, sys, core.Options{}) })
	})
	b.Run("dfbb", func(b *testing.B) {
		run(b, func() (*core.Result, error) {
			return engine.Solve(context.Background(), "dfbb", g, sys, engine.Config{})
		})
	})
	b.Run("dfbb-table", func(b *testing.B) {
		run(b, func() (*core.Result, error) {
			return engine.Solve(context.Background(), "dfbb", g, sys, engine.Config{UseVisited: true})
		})
	})
	b.Run("idastar", func(b *testing.B) {
		run(b, func() (*core.Result, error) {
			return engine.Solve(context.Background(), "ida", g, sys, engine.Config{})
		})
	})
}

// BenchmarkHeuristics measures every polynomial-time list scheduler on a
// 100-task instance (the regime the paper contrasts optimal search with).
func BenchmarkHeuristics(b *testing.B) {
	g := gen.MustRandom(gen.RandomConfig{V: 100, CCR: 1.0, Seed: 12, MeanOutDeg: 4})
	sys := procgraph.Complete(8)
	for _, alg := range listsched.All() {
		b.Run(alg.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := alg.Run(g, sys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpenList measures the two OPEN-list implementations under a
// push-heavy mixed workload (the A* hot path).
func BenchmarkOpenList(b *testing.B) {
	mk := map[string]func() core.Queue{
		"best-first": func() core.Queue { return core.NewBestFirstQueue() },
		"focal":      func() core.Queue { return core.NewFocalQueue(0.2) },
	}
	g, sys := benchInstance(1.0, 10)
	m, err := core.NewModel(g, sys)
	if err != nil {
		b.Fatal(err)
	}
	// Harvest a realistic state stream once.
	var stream []*core.State
	var stats core.Stats
	exp := m.NewExpander(core.Options{}, &stats)
	frontier := []*core.State{core.Root()}
	for len(stream) < 4096 && len(frontier) > 0 {
		s := frontier[0]
		frontier = frontier[1:]
		exp.Expand(s, nil, func(c *core.State) {
			stream = append(stream, c)
			if len(frontier) < 512 {
				frontier = append(frontier, c)
			}
		})
	}
	for name, newQ := range mk {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			q := newQ()
			for i := 0; i < b.N; i++ {
				q.Push(stream[i%len(stream)])
				if i%3 == 2 {
					q.Pop()
				}
			}
		})
	}
}

// BenchmarkSTG measures Standard Task Graph parse and emit.
func BenchmarkSTG(b *testing.B) {
	g := gen.MustRandom(gen.RandomConfig{V: 200, CCR: 1.0, Seed: 3, MeanOutDeg: 4})
	var buf strings.Builder
	if err := stg.Write(&buf, g); err != nil {
		b.Fatal(err)
	}
	text := buf.String()
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sb strings.Builder
			if err := stg.Write(&sb, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := stg.Read(strings.NewReader(text), stg.ImportOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExpansion isolates the expansion operator (state materialization,
// ready-set scan, child construction) on a mid-size instance.
func BenchmarkExpansion(b *testing.B) {
	g := gen.MustRandom(gen.RandomConfig{V: 24, CCR: 1.0, Seed: 9})
	sys := procgraph.Complete(8)
	m, err := core.NewModel(g, sys)
	if err != nil {
		b.Fatal(err)
	}
	var stats core.Stats
	exp := m.NewExpander(core.Options{}, &stats)
	// Build a small frontier to expand repeatedly.
	var frontier []*core.State
	exp.Expand(core.Root(), nil, func(s *core.State) { frontier = append(frontier, s) })
	for _, s := range frontier {
		exp.Expand(s, nil, func(c *core.State) {
			if len(frontier) < 64 {
				frontier = append(frontier, c)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		s := frontier[i%len(frontier)]
		sink += exp.Expand(s, nil, func(*core.State) {})
	}
	_ = sink
}

// BenchmarkListScheduler measures the linear-time upper-bound heuristic.
func BenchmarkListScheduler(b *testing.B) {
	g := gen.MustRandom(gen.RandomConfig{V: 200, CCR: 1.0, Seed: 4, MeanOutDeg: 4})
	sys := procgraph.Complete(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := listsched.Schedule(g, sys, listsched.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLevels measures the O(v+e) graph analyses.
func BenchmarkLevels(b *testing.B) {
	g := gen.MustRandom(gen.RandomConfig{V: 1000, CCR: 1.0, Seed: 4, MeanOutDeg: 6})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.TLevels()
		_ = g.BLevels()
		_ = g.StaticLevels()
	}
}

// BenchmarkGenerator measures the §4.1 workload generator.
func BenchmarkGenerator(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = gen.MustRandom(gen.RandomConfig{V: 32, CCR: 1.0, Seed: uint64(i)})
	}
}

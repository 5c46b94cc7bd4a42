package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/procgraph"
	"repro/internal/taskgraph"
)

// This file is the native-engine scaling experiment: real wall-clock
// self-relative speedup of the work-stealing multi-core engine, measured on
// the host it runs on, next to the paper-modeled speedup of the
// bulk-synchronous Paragon simulation (internal/parallel) on the same
// instances. Each (v, workers) cell produces two rows:
//
//   - a "dive" row: the HPlus heuristic proves the layered-STG optimum in a
//     handful of expansions. It contributes no meaningful timing, but it is
//     the determinism gate: the native makespan must equal serial A*'s and
//     BoundFactor must be exactly 1 at every worker count, or the run is
//     recorded as failed (CI's perf-smoke job exits non-zero on it).
//   - a "budget" row: the paper heuristic under a fixed expansion budget —
//     real search work at every worker count, so the wall-clock ratio
//     against the workers=1 row measures how the engine actually scales on
//     this machine's cores.

// SpeedupRow is one measurement of the speedup experiment.
type SpeedupRow struct {
	V        int
	Workers  int
	Mode     string // "dive" or "budget"
	Time     time.Duration
	Expanded int64
	Length   int32
	Optimal  bool
	Bound    float64
	// WallSpeedup is the workers=1 wall time of the same (v, mode) series
	// divided by this row's — self-relative, bounded by the host's cores.
	WallSpeedup float64
	// RateSpeedup is the expanded-states/sec ratio against the workers=1
	// row, which corrects for budget rows expanding slightly different
	// state counts.
	RateSpeedup float64
	// Modeled is the Paragon-model speedup of the bulk-synchronous parallel
	// engine at the same worker count (serial expansions / critical work);
	// 0 when not measured (dive rows).
	Modeled float64
}

// SpeedupResult reports the speedup experiment.
type SpeedupResult struct {
	Rows   []SpeedupRow
	Config Config
	// gate lists determinism-gate violations: any native dive cell whose
	// makespan differs from serial A*'s or whose BoundFactor is not
	// exactly 1, and any engine error.
	gate
}

// speedupInstance builds the layered-STG workload for one size, the same
// shape as the large experiment.
func speedupInstance(v int, seed uint64) (*taskgraph.Graph, *procgraph.System, error) {
	layers := v / 4
	if layers < 1 {
		layers = 1
	}
	g, err := gen.LayeredSTG(gen.LayeredConfig{Layers: layers, Width: 4, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	return g, procgraph.Complete(8), nil
}

// RunSpeedup measures the native engine's scaling: per size, a serial A*
// reference, then per worker count one proof (dive) cell and one
// fixed-budget throughput cell, plus the Paragon-modeled speedup of the
// parallel engine for comparison.
func RunSpeedup(cfg Config) *SpeedupResult {
	sizes := cfg.Sizes
	if sizes == nil {
		sizes = []int{80, 128}
	}
	workerCounts := cfg.PPEs
	if workerCounts == nil {
		workerCounts = []int{1, 2, 4, 8}
	}
	// Every series is self-relative to workers=1, so the baseline cell must
	// exist and run first: add 1 when absent and process in ascending order.
	hasOne := false
	for _, w := range workerCounts {
		hasOne = hasOne || w == 1
	}
	if !hasOne {
		workerCounts = append([]int{1}, workerCounts...)
	}
	workerCounts = append([]int(nil), workerCounts...)
	sort.Ints(workerCounts)
	cfg = cfg.withDefaults()
	res := &SpeedupResult{Config: cfg}

	for _, v := range sizes {
		g, sys, err := speedupInstance(v, cfg.Seed)
		if err != nil {
			res.failf("v=%d: workload generation failed: %v", v, err)
			continue
		}
		// The layered generator rounds v down to a multiple of its layer
		// width; label every row with the size actually solved.
		v = g.NumNodes()

		// Serial A* reference with the strengthened heuristic: the optimum
		// every dive cell is pinned to.
		refCfg := cfg.cellConfig()
		refCfg.HFunc = core.HPlus
		ref, err := engine.Solve(context.Background(), "astar", g, sys, refCfg)
		if err != nil {
			res.failf("v=%d: serial reference failed: %v", v, err)
			continue
		}
		if !ref.Optimal {
			res.failf("v=%d: serial reference did not prove optimality under the cell budget", v)
			continue
		}

		var diveBase, budgetBase SpeedupRow
		for _, w := range workerCounts {
			// Dive cell: prove the optimum, gate determinism.
			diveCfg := refCfg
			diveCfg.Workers = w
			start := time.Now()
			dive, err := engine.Solve(context.Background(), "native", g, sys, diveCfg)
			if err != nil {
				// Record the gate failure but still measure the budget cell:
				// a broken dive must not silently zero the scaling series.
				res.failf("v=%d workers=%d: native dive failed: %v", v, w, err)
			} else {
				row := SpeedupRow{
					V: v, Workers: w, Mode: "dive", Time: time.Since(start),
					Expanded: dive.Stats.Expanded, Length: dive.Length,
					Optimal: dive.Optimal, Bound: dive.BoundFactor,
				}
				if dive.Length != ref.Length {
					res.failf("v=%d workers=%d: native makespan %d differs from serial A* optimum %d", v, w, dive.Length, ref.Length)
				}
				if dive.BoundFactor != 1 {
					res.failf("v=%d workers=%d: native BoundFactor %g, want exactly 1", v, w, dive.BoundFactor)
				}
				if w == 1 {
					diveBase = row
				}
				fillSpeedups(&row, diveBase)
				res.Rows = append(res.Rows, row)
			}

			// Budget cell: real search work under the paper heuristic.
			budCfg := cfg.cellConfig()
			budCfg.Workers = w
			start = time.Now()
			bud, err := engine.Solve(context.Background(), "native", g, sys, budCfg)
			if err != nil {
				res.failf("v=%d workers=%d: native budget cell failed: %v", v, w, err)
				continue
			}
			brow := SpeedupRow{
				V: v, Workers: w, Mode: "budget", Time: time.Since(start),
				Expanded: bud.Stats.Expanded, Length: bud.Length,
				Optimal: bud.Optimal, Bound: bud.BoundFactor,
			}
			if w == 1 {
				budgetBase = brow
			}
			fillSpeedups(&brow, budgetBase)
			// Paragon-modeled comparison at the same worker count.
			if w > 1 && budgetBase.Expanded > 0 {
				pcfg := cfg.cellConfig()
				pcfg.PPEs = w
				pcfg.PeriodFloor = cfg.PeriodFloor
				if par, err := engine.Solve(context.Background(), "parallel", g, sys, pcfg); err == nil && par.Stats.CriticalWork > 0 {
					brow.Modeled = float64(budgetBase.Expanded) / float64(par.Stats.CriticalWork)
				}
			}
			res.Rows = append(res.Rows, brow)
		}
	}
	return res
}

// fillSpeedups derives the self-relative ratios of row against the
// workers=1 base of its series.
func fillSpeedups(row *SpeedupRow, base SpeedupRow) {
	if base.Time <= 0 || row.Time <= 0 {
		return
	}
	row.WallSpeedup = base.Time.Seconds() / row.Time.Seconds()
	baseRate := float64(base.Expanded) / base.Time.Seconds()
	rate := float64(row.Expanded) / row.Time.Seconds()
	if baseRate > 0 {
		row.RateSpeedup = rate / baseRate
	}
}

// Tables renders the speedup matrix.
func (r *SpeedupResult) Tables() []*table {
	t := &table{
		Title:  "Native engine — work-stealing multi-core speedup (self-relative)",
		Header: []string{"v", "workers", "mode", "time", "states expanded", "SL", "optimal", "bound", "wall ×", "rate ×", "modeled ×"},
	}
	for _, row := range r.Rows {
		bound := "—"
		if row.Bound > 0 {
			bound = fmt.Sprintf("%g", row.Bound)
		}
		modeled := "—"
		if row.Modeled > 0 {
			modeled = fmt.Sprintf("%.2f", row.Modeled)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(row.V), fmt.Sprint(row.Workers), row.Mode, fmtDuration(row.Time),
			fmt.Sprint(row.Expanded), fmt.Sprint(row.Length), fmt.Sprint(row.Optimal), bound,
			fmt.Sprintf("%.2f", row.WallSpeedup), fmt.Sprintf("%.2f", row.RateSpeedup), modeled,
		})
	}
	t.Notes = append(t.Notes,
		"layered STG workload (zero communication costs), complete:8 target",
		"dive rows: HPlus heuristic to a proven optimum — the determinism gate (makespan and BoundFactor pinned to serial A*)",
		fmt.Sprintf("budget rows: paper heuristic under a %d-expansion budget — wall × and rate × are self-relative to workers=1 on this host", r.Config.CellBudget),
		fmt.Sprintf("wall-clock speedup is capped by GOMAXPROCS=%d / NumCPU=%d on this host; modeled × is the Paragon-model speedup of the bulk-synchronous engine (DESIGN.md §5)", runtime.GOMAXPROCS(0), runtime.NumCPU()))
	if len(r.Failures) > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("DETERMINISM GATE FAILED: %d violation(s), see report", len(r.Failures)))
	}
	return []*table{t}
}

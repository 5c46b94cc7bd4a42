package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/procgraph"
	"repro/internal/solverpool"
	"repro/internal/taskgraph"
)

// This file is the new-size-regime experiment: instances beyond the old
// 64-task single-word mask (v ∈ {80, 128, 256}), solved under Aε* and
// portfolio budgets with the strengthened heuristic. The workload is
// layered random DAGs round-tripped through the Standard Task Graph format
// (zero communication costs — the STG model), the shape the large-instance
// acceptance tests use; the optimal engines are not expected to be fast on
// arbitrary dense v = 256 graphs, and the experiment records exactly how
// far the budgets carry them.

// LargeRow is one measurement of the large experiment.
type LargeRow struct {
	V        int
	Mode     string // "aeps" or "portfolio:<winner>"
	Time     time.Duration
	Expanded int64
	Length   int32
	Optimal  bool
	Bound    float64
}

// LargeResult reports the large experiment.
type LargeResult struct {
	Rows   []LargeRow
	Config Config
	gate
}

// largeSizes are the node counts of the experiment, all past the old
// 64-task ceiling, the largest at the new MaxNodes cap.
var largeSizes = []int{80, 128, 256}

// largeInstance builds the v-node layered STG workload for one cell.
func largeInstance(v int, seed uint64) (*taskgraph.Graph, *procgraph.System, error) {
	g, err := gen.LayeredSTG(gen.LayeredConfig{Layers: v / 4, Width: 4, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	return g, procgraph.Complete(8), nil
}

// RunLarge measures the large-instance cells: per size, one Aε* run and one
// portfolio race (astar, aeps, dfbb) under the shared per-cell budget, both
// with the strengthened heuristic.
func RunLarge(cfg Config) *LargeResult {
	cfg = cfg.withDefaults()
	res := &LargeResult{Config: cfg}
	for _, v := range largeSizes {
		g, sys, err := largeInstance(v, cfg.Seed)
		if err != nil {
			// Every planned cell appears in the report: a failure renders as
			// an err: row rather than silently vanishing from the table, and
			// fails the run.
			res.failf("large v=%d: %v", v, err)
			res.Rows = append(res.Rows,
				LargeRow{V: v, Mode: "aeps (err: " + err.Error() + ")"},
				LargeRow{V: v, Mode: "portfolio (err: " + err.Error() + ")"})
			continue
		}
		ecfg := cfg.cellConfig()
		ecfg.HFunc = core.HPlus

		aepsCfg := ecfg
		aepsCfg.Epsilon = 0.2
		start := time.Now()
		if r, err := engine.Solve(context.Background(), "aeps", g, sys, aepsCfg); err == nil {
			res.Rows = append(res.Rows, LargeRow{
				V: v, Mode: "aeps", Time: time.Since(start),
				Expanded: r.Stats.Expanded, Length: r.Length, Optimal: r.Optimal, Bound: r.BoundFactor,
			})
		} else {
			res.failf("large v=%d: aeps: %v", v, err)
			res.Rows = append(res.Rows, LargeRow{V: v, Mode: "aeps (err: " + err.Error() + ")", Time: time.Since(start)})
		}

		names := []string{"astar", "aeps", "dfbb"}
		start = time.Now()
		if pf, err := solverpool.New(len(names)).SolvePortfolio(context.Background(), g, sys, names, ecfg); err == nil {
			row := LargeRow{
				V: v, Mode: "portfolio:" + pf.Winner, Time: time.Since(start),
				Expanded: pf.Result.Stats.Expanded, Length: pf.Result.Length,
				Optimal: pf.Result.Optimal, Bound: pf.Result.BoundFactor,
			}
			for _, l := range pf.Losers {
				row.Expanded += l.Stats.Expanded
			}
			res.Rows = append(res.Rows, row)
		} else {
			res.failf("large v=%d: portfolio: %v", v, err)
			res.Rows = append(res.Rows, LargeRow{V: v, Mode: "portfolio (err: " + err.Error() + ")", Time: time.Since(start)})
		}
	}
	return res
}

// Tables renders the large-instance matrix.
func (r *LargeResult) Tables() []*table {
	t := &table{
		Title:  "Large instances — v beyond the old 64-task mask, Aε*/portfolio budgets",
		Header: []string{"v", "mode", "time", "states expanded", "SL", "optimal", "bound"},
	}
	for _, row := range r.Rows {
		bound := "—"
		if row.Bound > 0 {
			bound = fmt.Sprintf("%g", row.Bound)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(row.V), row.Mode, fmtDuration(row.Time), fmt.Sprint(row.Expanded),
			fmt.Sprint(row.Length), fmt.Sprint(row.Optimal), bound,
		})
	}
	t.Notes = append(t.Notes,
		"layered STG workload (zero communication costs), complete:8 target, HPlus heuristic",
		fmt.Sprintf("per-cell budget: %d expansions, portfolio races astar+aeps+dfbb (expanded sums all entrants)", r.Config.CellBudget))
	return []*table{t}
}

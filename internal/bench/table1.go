package bench

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/taskgraph"
)

// Table1Row is one graph size within one CCR block.
type Table1Row struct {
	V     int
	Chen  cellResult // Chen & Yu branch-and-bound
	Full  cellResult // A* without the §3.2 prunings ("A* full" column)
	Astar cellResult // A* with all prunings
}

// Table1Result holds one block per CCR, mirroring the paper's three
// sub-tables.
type Table1Result struct {
	CCRs   []float64
	Blocks map[float64][]Table1Row
	Config Config
	gate
}

// RunTable1 regenerates Table 1: running times of the Chen & Yu baseline,
// A* without pruning, and A* with pruning, per CCR and graph size.
func RunTable1(cfg Config) *Table1Result {
	cfg = cfg.withDefaults()
	res := &Table1Result{CCRs: cfg.CCRs, Blocks: map[float64][]Table1Row{}, Config: cfg}
	for _, ccr := range cfg.CCRs {
		for _, v := range cfg.Sizes {
			g, sys := cfg.instance(ccr, v)
			ecfg := cfg.cellConfig()
			full := ecfg
			full.Disable = core.DisableAllPruning
			row := Table1Row{V: v}
			var errs [3]error
			row.Chen, errs[0] = runCell("bnb", g, sys, ecfg)
			row.Full, errs[1] = runCell("astar", g, sys, full)
			row.Astar, errs[2] = runCell("astar", g, sys, ecfg)
			if err := errors.Join(errs[:]...); err != nil {
				res.failf("table1: %v", err)
				continue
			}
			res.Blocks[ccr] = append(res.Blocks[ccr], row)
		}
	}
	return res
}

// Tables renders one table per CCR in the paper's layout (columns: size,
// Chen, A* full, A*), with state counts alongside the times.
func (r *Table1Result) Tables() []*table {
	var out []*table
	for _, ccr := range r.CCRs {
		t := &table{
			Title: fmt.Sprintf("Table 1 — running times, CCR = %g", ccr),
			Header: []string{"v", "Chen (time)", "A* full (time)", "A* (time)",
				"Chen (states)", "A* full (states)", "A* (states)", "optimal SL"},
		}
		for _, row := range r.Blocks[ccr] {
			sl := "—"
			if row.Astar.Optimal {
				sl = fmt.Sprint(row.Astar.Length)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(row.V),
				cellString(row.Chen), cellString(row.Full), cellString(row.Astar),
				fmt.Sprint(row.Chen.Expanded), fmt.Sprint(row.Full.Expanded), fmt.Sprint(row.Astar.Expanded),
				sl,
			})
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("censored cells (—) hit the per-cell budget of %d expansions; the paper similarly leaves Chen v=32 blank", r.Config.CellBudget),
			"expected shape (paper): Chen slowest, pruning saves ≈20% over A* full, times grow with CCR")
		out = append(out, t)
	}
	return out
}

func cellString(c cellResult) string {
	if !c.Optimal {
		return "—"
	}
	return fmtDuration(c.Time)
}

// mustGraph builds the §4.1 instance for a cell.
func mustGraph(ccr float64, v int, seed uint64) *taskgraph.Graph {
	return gen.MustRandom(gen.RandomConfig{
		V:    v,
		CCR:  ccr,
		Seed: seed ^ (uint64(v) * 0xBF58476D1CE4E5B9),
		Name: fmt.Sprintf("paper-v%d-ccr%g", v, ccr),
	})
}

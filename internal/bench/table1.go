package bench

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// RunTable1 regenerates Table 1: running times of the Chen & Yu baseline,
// A* without pruning (variant "no-pruning", the paper's "A* full"), and
// A* with pruning, per CCR and graph size. A size whose three runs do not
// all succeed is reported as a gate failure and left out.
func RunTable1(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := newReport("table1", cfg)
	for _, ccr := range cfg.CCRs {
		for _, v := range cfg.Sizes {
			g, sys := cfg.instance(ccr, v)
			ecfg := cfg.cellConfig()
			full := ecfg
			full.Disable = core.DisableAllPruning
			var recs [3]Record
			var errs [3]error
			recs[0], errs[0] = runCell("bnb", g, sys, ecfg)
			recs[1], errs[1] = runCell("astar", g, sys, full)
			recs[2], errs[2] = runCell("astar", g, sys, ecfg)
			if err := errors.Join(errs[:]...); err != nil {
				rep.failf("table1: %v", err)
				continue
			}
			recs[1].Variant = "no-pruning"
			for _, rec := range recs {
				rec.CCR = ccr
				rep.Records = append(rep.Records, rec)
			}
		}
	}
	return rep
}

// table1Tables renders one table per CCR in the paper's layout (columns:
// size, Chen, A* full, A*), with state counts alongside the times.
func table1Tables(r *Report) []*table {
	var out []*table
	for _, ccr := range r.Config.CCRs {
		t := &table{
			Title: fmt.Sprintf("Table 1 — running times, CCR = %g", ccr),
			Header: []string{"v", "Chen (time)", "A* full (time)", "A* (time)",
				"Chen (states)", "A* full (states)", "A* (states)", "optimal SL"},
		}
		for i := range r.Records {
			chen := &r.Records[i]
			if chen.CCR != ccr || chen.Engine != "bnb" {
				continue
			}
			astar := func(variant string) *Record {
				return r.find(func(x *Record) bool {
					return x.Instance == chen.Instance && x.Engine == "astar" && x.Variant == variant
				})
			}
			full, pruned := astar("no-pruning"), astar("")
			if full == nil || pruned == nil {
				continue
			}
			sl := "—"
			if pruned.Optimal {
				sl = fmt.Sprint(pruned.Makespan)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(chen.V),
				cellString(chen), cellString(full), cellString(pruned),
				fmt.Sprint(chen.Expanded), fmt.Sprint(full.Expanded), fmt.Sprint(pruned.Expanded),
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

func cellString(rec *Record) string {
	if !rec.Optimal {
		return "—"
	}
	return fmtDuration(rec.wall())
}

package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/solverpool"
)

// This file is the new-size-regime experiment: instances beyond the old
// 64-task single-word mask (v ∈ {80, 128, 256}), solved under Aε* and
// portfolio budgets with the strengthened heuristic. The workload is
// layered random DAGs round-tripped through the Standard Task Graph format
// (zero communication costs — the STG model), the shape the large-instance
// acceptance tests use; the optimal engines are not expected to be fast on
// arbitrary dense v = 256 graphs, and the experiment records exactly how
// far the budgets carry them.

// largeSizes are the node counts of the experiment, all past the old
// 64-task ceiling, the largest at the new MaxNodes cap.
var largeSizes = []int{80, 128, 256}

// largePortfolio are the engines the large experiment's portfolio races.
var largePortfolio = []string{"astar", "aeps", "dfbb"}

// RunLarge measures the large-instance cells: per size, one Aε* run and one
// portfolio race (astar, aeps, dfbb) under the shared per-cell budget, both
// with the strengthened heuristic. The portfolio's record names the
// winner as its variant and sums every entrant's counters.
func RunLarge(cfg Config) *Report {
	cfg = cfg.withDefaults()
	cfg.Sizes = largeSizes
	rep := newReport("large", cfg)
	for _, v := range largeSizes {
		g, sys, err := layeredInstance(v, cfg.Seed)
		if err != nil {
			rep.failf("large v=%d: %v", v, err)
			continue
		}
		ecfg := cfg.cellConfig()
		ecfg.HFunc = core.HPlus

		aepsCfg := ecfg
		aepsCfg.Epsilon = 0.2
		if rec, err := runCell("aeps", g, sys, aepsCfg); err == nil {
			rep.Records = append(rep.Records, rec)
		} else {
			rep.failf("large v=%d: %v", v, err)
		}

		start := time.Now()
		pf, err := solverpool.New(len(largePortfolio)).SolvePortfolio(context.Background(), g, sys, largePortfolio, ecfg)
		if err != nil {
			rep.failf("large v=%d: portfolio: %v", v, err)
			continue
		}
		rec := newRecord("portfolio", g, sys, ecfg, pf.Result, time.Since(start))
		rec.Variant = pf.Winner
		for _, l := range pf.Losers {
			rec.Expanded += l.Stats.Expanded
			rec.Generated += l.Stats.Generated
		}
		rep.Records = append(rep.Records, rec)
	}
	return rep
}

// largeTables renders the large-instance matrix.
func largeTables(r *Report) []*table {
	t := &table{
		Title:  "Large instances — v beyond the old 64-task mask, Aε*/portfolio budgets",
		Header: []string{"v", "mode", "time", "states expanded", "generated", "SL", "optimal", "bound"},
	}
	for i := range r.Records {
		rec := &r.Records[i]
		mode := rec.Engine
		if rec.Variant != "" {
			mode += ":" + rec.Variant
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(rec.V), mode, fmtDuration(rec.wall()), fmt.Sprint(rec.Expanded),
			fmt.Sprint(rec.Generated), fmt.Sprint(rec.Makespan), fmt.Sprint(rec.Optimal), boundString(rec),
		})
	}
	t.Notes = append(t.Notes,
		"layered STG workload (zero communication costs), complete:8 target, HPlus heuristic",
		fmt.Sprintf("per-cell budget: %d expansions, portfolio races astar+aeps+dfbb (expanded and generated sum all entrants)", r.Config.CellBudget))
	return []*table{t}
}

// boundString renders a record's guarantee factor, "—" when it has none.
func boundString(rec *Record) string {
	if rec.BoundFactor <= 0 {
		return "—"
	}
	return fmt.Sprintf("%g", rec.BoundFactor)
}

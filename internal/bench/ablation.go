package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parallel"
)

// serialVariants enumerates the ablated configurations of the serial engine.
func serialVariants() []struct {
	Name string
	Cfg  engine.Config
} {
	return []struct {
		Name string
		Cfg  engine.Config
	}{
		{"full", engine.Config{}},
		{"no-isomorphism", engine.Config{Disable: core.DisableIsomorphism}},
		{"no-equivalence", engine.Config{Disable: core.DisableEquivalence}},
		{"no-equiv-tasks", engine.Config{Disable: core.DisableEquivalentTasks}},
		{"no-fto", engine.Config{Disable: core.DisableFTO}},
		{"no-upper-bound", engine.Config{Disable: core.DisableUpperBound}},
		{"no-priority-order", engine.Config{Disable: core.DisablePriorityOrder}},
		{"no-pruning (A* full)", engine.Config{Disable: core.DisableAllPruning}},
		{"hplus", engine.Config{HFunc: core.HPlus}},
		{"hload", engine.Config{HFunc: core.HLoad}},
	}
}

// RunAblation measures each pruning technique's individual contribution and
// the strengthened heuristic, per CCR and size: the per-technique breakdown
// the paper's §4.2 summarizes as "the pruning techniques reduce the running
// times consistently by about 20%", extended with the heuristic-function
// and duplicate-check ablations.
func RunAblation(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := newReport("ablation", cfg)
	for _, ccr := range cfg.CCRs {
		for _, v := range cfg.Sizes {
			g, sys := cfg.instance(ccr, v)
			for _, variant := range serialVariants() {
				ecfg := variant.Cfg
				ecfg.MaxExpanded = cfg.CellBudget
				ecfg.Timeout = cfg.CellTimeout
				rec, err := runCell("astar", g, sys, ecfg)
				if err != nil {
					rep.failf("ablation %s: %v", variant.Name, err)
					continue
				}
				rec.CCR, rec.Variant = ccr, variant.Name
				rep.Records = append(rep.Records, rec)
			}
		}
	}
	return rep
}

// ablationTables renders the ablation matrix.
func ablationTables(r *Report) []*table {
	t := &table{
		Title:  "Ablation — individual pruning techniques and heuristic variants (serial A*)",
		Header: []string{"CCR", "v", "variant", "time", "states expanded", "generated", "SL", "optimal"},
	}
	for i := range r.Records {
		rec := &r.Records[i]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", rec.CCR), fmt.Sprint(rec.V), rec.Variant,
			fmtDuration(rec.wall()), fmt.Sprint(rec.Expanded), fmt.Sprint(rec.Generated),
			fmt.Sprint(rec.Makespan), fmt.Sprint(rec.Optimal),
		})
	}
	t.Notes = append(t.Notes,
		"§4.2 reports the prunings jointly save ≈20% of the running time; every variant must agree on SL when optimal")
	return []*table{t}
}

// distributionPolicies are the parallel engine's state-distribution
// policies the distribution experiment compares: the paper's neighbor
// round-robin placement and hash-based state-space partitioning (ref. [15]).
var distributionPolicies = []struct {
	Name string
	Dist parallel.Distribution
}{
	{"neighbor-rr (paper)", parallel.DistributeNeighborRR},
	{"hash (ref. 15)", parallel.DistributeHash},
}

// RunDistribution measures both distribution policies across PPE counts,
// against the serial A* run on each instance; instances the serial run
// does not prove are skipped.
func RunDistribution(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := newReport("distribution", cfg)
	for _, ccr := range cfg.CCRs {
		for _, v := range cfg.Sizes {
			g, sys := cfg.instance(ccr, v)
			serial, err := runCell("astar", g, sys, cfg.cellConfig())
			if err != nil {
				rep.failf("distribution: %v", err)
				continue
			}
			serial.CCR = ccr
			rep.Records = append(rep.Records, serial)
			if !serial.Optimal {
				continue
			}
			for _, q := range cfg.PPEs {
				for _, pol := range distributionPolicies {
					pcfg := cfg.parallelConfig(q)
					pcfg.Distribution = pol.Dist
					par, err := runCell("parallel", g, sys, pcfg)
					if err != nil {
						rep.failf("distribution %s PPEs=%d: %v", pol.Name, q, err)
						continue
					}
					par.CCR, par.Variant = ccr, pol.Name
					rep.Records = append(rep.Records, par)
				}
			}
		}
	}
	return rep
}

// distributionTables renders the distribution-policy comparison: each
// parallel run's work ratio and modeled speedup against the serial run.
func distributionTables(r *Report) []*table {
	t := &table{
		Title:  "Ablation — parallel state-distribution policy",
		Header: []string{"CCR", "v", "PPEs", "policy", "time", "work ratio", "modeled speedup", "optimal"},
	}
	for i := range r.Records {
		par := &r.Records[i]
		if par.Engine != "parallel" {
			continue
		}
		serial := r.find(func(x *Record) bool { return x.Instance == par.Instance && x.Engine == "astar" })
		if serial == nil {
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", par.CCR), fmt.Sprint(par.V), fmt.Sprint(par.Workers), par.Variant,
			fmtDuration(par.wall()),
			fmt.Sprintf("%.2f", ratio(float64(par.Expanded), float64(serial.Expanded))),
			fmt.Sprintf("%.2f", ratio(float64(serial.Expanded), float64(par.CriticalWork))),
			fmt.Sprint(par.Optimal),
		})
	}
	t.Notes = append(t.Notes,
		"hash partitioning dedups globally (sharded CLOSED) and should hold the work ratio near 1; the paper's local-only CLOSED re-explores reconverging states")
	return []*table{t}
}

package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parallel"
)

// AblationRow measures one engine configuration on one instance.
type AblationRow struct {
	CCR      float64
	V        int
	Variant  string
	Time     time.Duration
	Expanded int64
	Length   int32
	Optimal  bool
}

// AblationResult is the per-technique breakdown the paper's §4.2 summarizes
// as "the pruning techniques reduce the running times consistently by about
// 20%", extended with the heuristic-function and duplicate-check ablations.
type AblationResult struct {
	Rows   []AblationRow
	Config Config
	gate
}

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
// the strengthened heuristic, per CCR and size.
func RunAblation(cfg Config) *AblationResult {
	cfg = cfg.withDefaults()
	res := &AblationResult{Config: cfg}
	for _, ccr := range cfg.CCRs {
		for _, v := range cfg.Sizes {
			g, sys := cfg.instance(ccr, v)
			for _, variant := range serialVariants() {
				ecfg := variant.Cfg
				ecfg.MaxExpanded = cfg.CellBudget
				ecfg.Timeout = cfg.CellTimeout
				c, err := runCell("astar", g, sys, ecfg)
				if err != nil {
					res.failf("ablation %s: %v", variant.Name, err)
					continue
				}
				res.Rows = append(res.Rows, AblationRow{
					CCR: ccr, V: v, Variant: variant.Name,
					Time: c.Time, Expanded: c.Expanded, Length: c.Length, Optimal: c.Optimal,
				})
			}
		}
	}
	return res
}

// Tables renders the ablation matrix.
func (r *AblationResult) Tables() []*table {
	t := &table{
		Title:  "Ablation — individual pruning techniques and heuristic variants (serial A*)",
		Header: []string{"CCR", "v", "variant", "time", "states expanded", "SL", "optimal"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", row.CCR), fmt.Sprint(row.V), row.Variant,
			fmtDuration(row.Time), fmt.Sprint(row.Expanded), fmt.Sprint(row.Length),
			fmt.Sprint(row.Optimal),
		})
	}
	t.Notes = append(t.Notes,
		"§4.2 reports the prunings jointly save ≈20% of the running time; every variant must agree on SL when optimal")
	return []*table{t}
}

// DistributionRow measures one parallel distribution policy.
type DistributionRow struct {
	CCR            float64
	V              int
	PPEs           int
	Policy         string
	Time           time.Duration
	Expanded       int64
	WorkRatio      float64
	ModeledSpeedup float64
	Optimal        bool
}

// DistributionResult compares the paper's neighbor round-robin placement
// against hash-based state-space partitioning (ref. [15]).
type DistributionResult struct {
	Rows   []DistributionRow
	Config Config
	gate
}

// RunDistribution measures both distribution policies across PPE counts.
func RunDistribution(cfg Config) *DistributionResult {
	cfg = cfg.withDefaults()
	res := &DistributionResult{Config: cfg}
	policies := []struct {
		Name string
		Dist parallel.Distribution
	}{
		{"neighbor-rr (paper)", parallel.DistributeNeighborRR},
		{"hash (ref. 15)", parallel.DistributeHash},
	}
	for _, ccr := range cfg.CCRs {
		for _, v := range cfg.Sizes {
			g, sys := cfg.instance(ccr, v)
			serial, _, err := solve("astar", g, sys, cfg.cellConfig())
			if err != nil {
				res.failf("distribution: %v", err)
				continue
			}
			if !serial.Optimal {
				continue
			}
			for _, q := range cfg.PPEs {
				for _, pol := range policies {
					pcfg := cfg.cellConfig()
					pcfg.PPEs = q
					pcfg.Distribution = pol.Dist
					pcfg.PeriodFloor = cfg.PeriodFloor
					pcfg.MaxExpanded = cfg.CellBudget * int64(q)
					par, parTime, err := solve("parallel", g, sys, pcfg)
					if err != nil {
						res.failf("distribution %s PPEs=%d: %v", pol.Name, q, err)
						continue
					}
					row := DistributionRow{
						CCR: ccr, V: v, PPEs: q, Policy: pol.Name,
						Time:      parTime,
						Expanded:  par.Stats.Expanded,
						WorkRatio: float64(par.Stats.Expanded) / float64(serial.Stats.Expanded),
						Optimal:   par.Optimal,
					}
					if par.Stats.CriticalWork > 0 {
						row.ModeledSpeedup = float64(serial.Stats.Expanded) / float64(par.Stats.CriticalWork)
					}
					res.Rows = append(res.Rows, row)
				}
			}
		}
	}
	return res
}

// Tables renders the distribution-policy comparison.
func (r *DistributionResult) Tables() []*table {
	t := &table{
		Title:  "Ablation — parallel state-distribution policy",
		Header: []string{"CCR", "v", "PPEs", "policy", "time", "work ratio", "modeled speedup", "optimal"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", row.CCR), fmt.Sprint(row.V), fmt.Sprint(row.PPEs), row.Policy,
			fmtDuration(row.Time), fmt.Sprintf("%.2f", row.WorkRatio),
			fmt.Sprintf("%.2f", row.ModeledSpeedup), fmt.Sprint(row.Optimal),
		})
	}
	t.Notes = append(t.Notes,
		"hash partitioning dedups globally (sharded CLOSED) and should hold the work ratio near 1; the paper's local-only CLOSED re-explores reconverging states")
	return []*table{t}
}

package bench

import (
	"fmt"

	"repro/internal/listsched"
)

// DeviationRow is one heuristic's aggregate deviation from the proven
// optimum over one CCR's instance batch.
type DeviationRow struct {
	Heuristic string
	AvgDev    float64 // percent above optimal, averaged over solved instances
	MaxDev    float64 // worst percent above optimal
	Optimal   int     // instances where the heuristic matched the optimum
	Solved    int     // instances with a proven optimum (the denominator)
}

// DeviationResult holds one block per CCR.
type DeviationResult struct {
	CCRs   []float64
	Blocks map[float64][]DeviationRow
	Config Config
	gate
}

// RunDeviation measures the study the paper's introduction motivates:
// "optimal solutions for a set of benchmark problems can serve as a
// reference to assess the performance of various scheduling heuristics."
// For every CCR it solves the configured sizes optimally with the serial
// A* (skipping instances whose cell budget censors the proof) and runs
// each list-scheduling heuristic on the same instances.
func RunDeviation(cfg Config) *DeviationResult {
	cfg = cfg.withDefaults()
	res := &DeviationResult{CCRs: cfg.CCRs, Blocks: map[float64][]DeviationRow{}, Config: cfg}
	algs := listsched.All()
	for _, ccr := range cfg.CCRs {
		rows := make([]DeviationRow, len(algs))
		for i, alg := range algs {
			rows[i].Heuristic = alg.Name
		}
		for _, v := range cfg.Sizes {
			g, sys := cfg.instance(ccr, v)
			ref, _, err := solve("astar", g, sys, cfg.cellConfig())
			if err != nil {
				res.failf("deviation: %v", err)
				continue
			}
			if !ref.Optimal {
				continue // no proven reference for this instance
			}
			for i, alg := range algs {
				s, err := alg.Run(g, sys)
				if err != nil {
					res.failf("deviation: %s on %s: %v", alg.Name, g.Name(), err)
					continue
				}
				dev := 100 * (float64(s.Length) - float64(ref.Length)) / float64(ref.Length)
				rows[i].Solved++
				rows[i].AvgDev += dev
				if dev > rows[i].MaxDev {
					rows[i].MaxDev = dev
				}
				if s.Length == ref.Length {
					rows[i].Optimal++
				}
			}
		}
		for i := range rows {
			if rows[i].Solved > 0 {
				rows[i].AvgDev /= float64(rows[i].Solved)
			}
		}
		res.Blocks[ccr] = rows
	}
	return res
}

// Tables renders one block per CCR.
func (r *DeviationResult) Tables() []*table {
	var out []*table
	for _, ccr := range r.CCRs {
		t := &table{
			Title:  fmt.Sprintf("Heuristic deviation from optimal, CCR = %g", ccr),
			Header: []string{"heuristic", "avg dev", "max dev", "optimal", "instances"},
			Notes: []string{
				"reference: serial A* optima on the §4.1 instances (censored instances excluded)",
				"expected shape (paper §1 motivation): deviations grow with CCR; no heuristic dominates",
			},
		}
		for _, row := range r.Blocks[ccr] {
			t.Rows = append(t.Rows, []string{
				row.Heuristic,
				fmt.Sprintf("%.1f%%", row.AvgDev),
				fmt.Sprintf("%.1f%%", row.MaxDev),
				fmt.Sprintf("%d", row.Optimal),
				fmt.Sprintf("%d", row.Solved),
			})
		}
		out = append(out, t)
	}
	return out
}

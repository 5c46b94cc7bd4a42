package bench

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/listsched"
)

// RunDeviation measures the study the paper's introduction motivates:
// "optimal solutions for a set of benchmark problems can serve as a
// reference to assess the performance of various scheduling heuristics."
// For every CCR it solves the configured sizes with the serial A* and runs
// each list-scheduling heuristic on the same instances; the tables compare
// them on the instances whose optimum A* proved under the cell budget.
func RunDeviation(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := newReport("deviation", cfg)
	for _, ccr := range cfg.CCRs {
		for _, v := range cfg.Sizes {
			g, sys := cfg.instance(ccr, v)
			ref, err := runCell("astar", g, sys, cfg.cellConfig())
			if err != nil {
				rep.failf("deviation: %v", err)
				continue
			}
			ref.CCR = ccr
			rep.Records = append(rep.Records, ref)
			for _, alg := range listsched.All() {
				start := time.Now()
				s, err := alg.Run(g, sys)
				if err != nil {
					rep.failf("deviation: %s on %s: %v", alg.Name, g.Name(), err)
					continue
				}
				rec := newRecord(alg.Name, g, sys, engine.Config{}, nil, time.Since(start))
				rec.CCR, rec.Makespan = ccr, s.Length
				rep.Records = append(rep.Records, rec)
			}
		}
	}
	return rep
}

// deviationTables renders one block per CCR: per heuristic, the average
// and worst percent above the proven optimum over the instances A*
// proved, how many of them it matched, and how many there were.
func deviationTables(r *Report) []*table {
	type aggregate struct {
		name           string
		avgDev, maxDev float64
		optimal, total int
	}
	var out []*table
	for _, ccr := range r.Config.CCRs {
		var rows []*aggregate
		byName := map[string]*aggregate{}
		for i := range r.Records {
			rec := &r.Records[i]
			if rec.CCR != ccr || rec.Engine == "astar" {
				continue
			}
			a := byName[rec.Engine]
			if a == nil {
				a = &aggregate{name: rec.Engine}
				byName[rec.Engine] = a
				rows = append(rows, a)
			}
			ref := r.find(func(x *Record) bool { return x.Instance == rec.Instance && x.Engine == "astar" })
			if ref == nil || !ref.Optimal {
				continue // no proven reference for this instance
			}
			dev := 100 * ratio(float64(rec.Makespan-ref.Makespan), float64(ref.Makespan))
			a.total++
			a.avgDev += dev
			a.maxDev = max(a.maxDev, dev)
			if rec.Makespan == ref.Makespan {
				a.optimal++
			}
		}
		t := &table{
			Title:  fmt.Sprintf("Heuristic deviation from optimal, CCR = %g", ccr),
			Header: []string{"heuristic", "avg dev", "max dev", "optimal", "instances"},
			Notes: []string{
				"reference: serial A* optima on the §4.1 instances (censored instances excluded)",
				"expected shape (paper §1 motivation): deviations grow with CCR; no heuristic dominates",
			},
		}
		for _, a := range rows {
			t.Rows = append(t.Rows, []string{
				a.name,
				fmt.Sprintf("%.1f%%", ratio(a.avgDev, float64(a.total))),
				fmt.Sprintf("%.1f%%", a.maxDev),
				fmt.Sprintf("%d", a.optimal),
				fmt.Sprintf("%d", a.total),
			})
		}
		out = append(out, t)
	}
	return out
}

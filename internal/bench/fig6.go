package bench

import (
	"fmt"
)

// RunFig6 regenerates Figure 6: speedups of the parallel A* over the serial
// A* for each PPE count, graph size, and CCR.
func RunFig6(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := newReport("fig6", cfg)
	for _, ccr := range cfg.CCRs {
		for _, v := range cfg.Sizes {
			g, sys := cfg.instance(ccr, v)
			serial, err := runCell("astar", g, sys, cfg.cellConfig())
			if err != nil {
				rep.failf("fig6: %v", err)
				continue
			}
			serial.CCR = ccr
			rep.Records = append(rep.Records, serial)
			for _, q := range cfg.PPEs {
				par, err := runCell("parallel", g, sys, cfg.parallelConfig(q))
				if err != nil {
					rep.failf("fig6 PPEs=%d: %v", q, err)
					continue
				}
				par.CCR = ccr
				rep.Records = append(rep.Records, par)
			}
		}
	}
	return rep
}

// fig6Tables renders one table per CCR with the three speedup metrics of
// each parallel run against the serial run on the same instance:
//
//   - wall speedup: serial wall time / parallel wall time on the host,
//     bounded above by its core count;
//   - modeled speedup: serial expansions / parallel critical work, the
//     speedup a machine with one core per PPE and uniform expansion cost
//     would see (the Paragon substitution of DESIGN.md §5);
//   - work ratio: parallel total expansions / serial expansions, the extra
//     state generation the paper notes for the parallel algorithm.
func fig6Tables(r *Report) []*table {
	var out []*table
	for _, ccr := range r.Config.CCRs {
		t := &table{
			Title:  fmt.Sprintf("Figure 6 — parallel A* speedup, CCR = %g", ccr),
			Header: []string{"v", "PPEs", "wall speedup", "modeled speedup", "work ratio"},
		}
		for i := range r.Records {
			par := &r.Records[i]
			if par.CCR != ccr || par.Engine != "parallel" {
				continue
			}
			serial := r.find(func(x *Record) bool { return x.Instance == par.Instance && x.Engine == "astar" })
			if serial == nil {
				continue
			}
			mark := ""
			if !serial.Optimal || !par.Optimal {
				mark = " (censored)"
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(par.V), fmt.Sprint(par.Workers),
				fmt.Sprintf("%.2f%s", ratio(serial.WallMS, par.WallMS), mark),
				fmt.Sprintf("%.2f", ratio(float64(serial.Expanded), float64(par.CriticalWork))),
				fmt.Sprintf("%.2f", ratio(float64(par.Expanded), float64(serial.Expanded))),
			})
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("wall speedup is capped by GOMAXPROCS=%d on this host; modeled speedup assumes one core per PPE (see DESIGN.md §5)", r.Host.GoMaxProcs),
			"expected shape (paper): speedup grows with PPEs, drops slightly with v, more irregular at CCR 10")
		out = append(out, t)
	}
	return out
}

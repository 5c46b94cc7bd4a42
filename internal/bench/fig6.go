package bench

import (
	"fmt"
	"runtime"
)

// Fig6Point is one (v, q) measurement of the parallel A*.
type Fig6Point struct {
	V    int
	PPEs int
	// WallSpeedup is serial wall time / parallel wall time on this host,
	// bounded above by the physical core count.
	WallSpeedup float64
	// ModeledSpeedup is serial expansions / parallel critical work: the
	// speedup a machine with one core per PPE and uniform expansion cost
	// would see (the Paragon substitution of DESIGN.md §5).
	ModeledSpeedup float64
	// WorkRatio is parallel total expansions / serial expansions — the
	// extra state generation the paper notes for the parallel algorithm.
	WorkRatio float64
	Censored  bool
}

// Fig6Result holds one series per CCR, mirroring Figure 6(a)–(c).
type Fig6Result struct {
	CCRs   []float64
	Series map[float64][]Fig6Point
	Config Config
	gate
}

// RunFig6 regenerates Figure 6: speedups of the parallel A* over the serial
// A* for each PPE count, graph size, and CCR.
func RunFig6(cfg Config) *Fig6Result {
	cfg = cfg.withDefaults()
	res := &Fig6Result{CCRs: cfg.CCRs, Series: map[float64][]Fig6Point{}, Config: cfg}
	for _, ccr := range cfg.CCRs {
		for _, v := range cfg.Sizes {
			g, sys := cfg.instance(ccr, v)
			serial, serialTime, err := solve("astar", g, sys, cfg.cellConfig())
			if err != nil {
				res.failf("fig6: %v", err)
				continue
			}
			for _, q := range cfg.PPEs {
				pcfg := cfg.cellConfig()
				pcfg.PPEs = q
				pcfg.PeriodFloor = cfg.PeriodFloor
				pcfg.MaxExpanded = cfg.CellBudget * int64(q)
				par, parTime, err := solve("parallel", g, sys, pcfg)
				if err != nil {
					res.failf("fig6 PPEs=%d: %v", q, err)
					continue
				}
				pt := Fig6Point{
					V:           v,
					PPEs:        q,
					WallSpeedup: serialTime.Seconds() / parTime.Seconds(),
					WorkRatio:   float64(par.Stats.Expanded) / float64(serial.Stats.Expanded),
					Censored:    !serial.Optimal || !par.Optimal,
				}
				if par.Stats.CriticalWork > 0 {
					pt.ModeledSpeedup = float64(serial.Stats.Expanded) / float64(par.Stats.CriticalWork)
				}
				res.Series[ccr] = append(res.Series[ccr], pt)
			}
		}
	}
	return res
}

// Tables renders one table per CCR with the three speedup metrics.
func (r *Fig6Result) Tables() []*table {
	var out []*table
	for _, ccr := range r.CCRs {
		t := &table{
			Title:  fmt.Sprintf("Figure 6 — parallel A* speedup, CCR = %g", ccr),
			Header: []string{"v", "PPEs", "wall speedup", "modeled speedup", "work ratio"},
		}
		for _, p := range r.Series[ccr] {
			mark := ""
			if p.Censored {
				mark = " (censored)"
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(p.V), fmt.Sprint(p.PPEs),
				fmt.Sprintf("%.2f%s", p.WallSpeedup, mark),
				fmt.Sprintf("%.2f", p.ModeledSpeedup),
				fmt.Sprintf("%.2f", p.WorkRatio),
			})
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("wall speedup is capped by GOMAXPROCS=%d on this host; modeled speedup assumes one core per PPE (see DESIGN.md §5)", runtime.GOMAXPROCS(0)),
			"expected shape (paper): speedup grows with PPEs, drops slightly with v, more irregular at CCR 10")
		out = append(out, t)
	}
	return out
}

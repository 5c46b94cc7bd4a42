package bench

import (
	"fmt"
)

// Fig7Point is one (v, ε) measurement of the parallel Aε* against the
// parallel exact A* on the same PPE count.
type Fig7Point struct {
	V       int
	Epsilon float64
	// DeviationPct is 100 * (Aε* length - optimal) / optimal — Figure 7
	// (a)/(c); the paper reports deviations well below the ε bound.
	DeviationPct float64
	// TimeRatio is Aε* scheduling time / exact A* scheduling time —
	// Figure 7 (b)/(d); below 1 means the approximation saved time.
	TimeRatio float64
	Censored  bool
}

// Fig7Result holds one series per (CCR, ε).
type Fig7Result struct {
	CCRs     []float64
	Epsilons []float64
	Series   map[float64]map[float64][]Fig7Point // ccr -> eps -> points
	Config   Config
	gate
}

// RunFig7 regenerates Figure 7: percentage deviation from optimal and
// scheduling-time ratio of the parallel Aε* versus the parallel A*.
func RunFig7(cfg Config) *Fig7Result {
	cfg = cfg.withDefaults()
	res := &Fig7Result{
		CCRs:     cfg.CCRs,
		Epsilons: cfg.Epsilons,
		Series:   map[float64]map[float64][]Fig7Point{},
		Config:   cfg,
	}
	q := cfg.Fig7PPEs
	for _, ccr := range cfg.CCRs {
		res.Series[ccr] = map[float64][]Fig7Point{}
		for _, v := range cfg.Sizes {
			g, sys := cfg.instance(ccr, v)
			pcfg := cfg.cellConfig()
			pcfg.PPEs = q
			pcfg.PeriodFloor = cfg.PeriodFloor
			pcfg.MaxExpanded = cfg.CellBudget * int64(q)
			exact, exactTime, err := solve("parallel", g, sys, pcfg)
			if err != nil {
				res.failf("fig7: %v", err)
				continue
			}
			for _, eps := range cfg.Epsilons {
				acfg := pcfg
				acfg.Epsilon = eps
				approx, approxTime, err := solve("parallel", g, sys, acfg)
				if err != nil {
					res.failf("fig7 ε=%g: %v", eps, err)
					continue
				}
				pt := Fig7Point{
					V:            v,
					Epsilon:      eps,
					DeviationPct: 100 * float64(approx.Length-exact.Length) / float64(exact.Length),
					TimeRatio:    approxTime.Seconds() / exactTime.Seconds(),
					Censored:     !exact.Optimal || approx.BoundFactor == 0,
				}
				res.Series[ccr][eps] = append(res.Series[ccr][eps], pt)
			}
		}
	}
	return res
}

// Tables renders one table per ε with one row per (CCR, v), carrying both
// panels of the figure (deviation and time ratio).
func (r *Fig7Result) Tables() []*table {
	var out []*table
	for _, eps := range r.Epsilons {
		t := &table{
			Title:  fmt.Sprintf("Figure 7 — parallel Aε* (%d PPEs), ε = %g", r.Config.Fig7PPEs, eps),
			Header: []string{"CCR", "v", "deviation from optimal (%)", "time ratio Aε*/A*"},
		}
		for _, ccr := range r.CCRs {
			for _, p := range r.Series[ccr][eps] {
				mark := ""
				if p.Censored {
					mark = " (censored)"
				}
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%g", ccr), fmt.Sprint(p.V),
					fmt.Sprintf("%.1f%s", p.DeviationPct, mark),
					fmt.Sprintf("%.2f", p.TimeRatio),
				})
			}
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("deviation is bounded by 100ε = %.0f%% (Theorem 2); the paper measures it far below the bound", 100*eps),
			"expected shape (paper): time ratio ≈0.6–0.9 at ε=0.2 and ≈0.3–0.5 at ε=0.5")
		out = append(out, t)
	}
	return out
}

package bench

import (
	"fmt"
)

// RunFig7 regenerates Figure 7: percentage deviation from optimal and
// scheduling-time ratio of the parallel Aε* versus the parallel A* on the
// same PPE count. The exact run is the record of variant "exact", so an
// ε = 0 run is compared against it like any other ε.
func RunFig7(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := newReport("fig7", cfg)
	for _, ccr := range cfg.CCRs {
		for _, v := range cfg.Sizes {
			g, sys := cfg.instance(ccr, v)
			pcfg := cfg.parallelConfig(cfg.Fig7PPEs)
			exact, err := runCell("parallel", g, sys, pcfg)
			if err != nil {
				rep.failf("fig7: %v", err)
				continue
			}
			exact.CCR, exact.Variant = ccr, "exact"
			rep.Records = append(rep.Records, exact)
			for _, eps := range cfg.Epsilons {
				acfg := pcfg
				acfg.Epsilon = eps
				approx, err := runCell("parallel", g, sys, acfg)
				if err != nil {
					rep.failf("fig7 ε=%g: %v", eps, err)
					continue
				}
				approx.CCR = ccr
				rep.Records = append(rep.Records, approx)
			}
		}
	}
	return rep
}

// fig7Tables renders one table per ε with one row per (CCR, v), carrying
// both panels of the figure: the deviation 100 * (Aε* length - optimal) /
// optimal (Figure 7 (a)/(c); the paper reports deviations well below the
// ε bound), and the time ratio Aε* / exact A* (Figure 7 (b)/(d); below 1
// means the approximation saved time).
func fig7Tables(r *Report) []*table {
	var out []*table
	for _, eps := range r.Config.Epsilons {
		t := &table{
			Title:  fmt.Sprintf("Figure 7 — parallel Aε* (%d PPEs), ε = %g", r.Config.Fig7PPEs, eps),
			Header: []string{"CCR", "v", "deviation from optimal (%)", "time ratio Aε*/A*"},
		}
		for _, ccr := range r.Config.CCRs {
			for i := range r.Records {
				approx := &r.Records[i]
				if approx.CCR != ccr || approx.Variant == "exact" || approx.Epsilon != eps {
					continue
				}
				exact := r.find(func(x *Record) bool { return x.Instance == approx.Instance && x.Variant == "exact" })
				if exact == nil {
					continue
				}
				mark := ""
				if !exact.Optimal || approx.BoundFactor == 0 {
					mark = " (censored)"
				}
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%g", ccr), fmt.Sprint(approx.V),
					fmt.Sprintf("%.1f%s", 100*ratio(float64(approx.Makespan-exact.Makespan), float64(exact.Makespan)), mark),
					fmt.Sprintf("%.2f", ratio(approx.WallMS, exact.WallMS)),
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

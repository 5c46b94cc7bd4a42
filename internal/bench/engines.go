package bench

import (
	"fmt"

	"repro/internal/engine"
)

// RunEngines compares every engine in the registry on the same §4.1
// instances, under the same per-cell budget — the head-to-head the
// paper's unification claim implies. The harness iterates engine.All(),
// so an engine registered tomorrow appears here without a code change.
func RunEngines(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := newReport("engines", cfg)
	for _, ccr := range cfg.CCRs {
		for _, v := range cfg.Sizes {
			g, sys := cfg.instance(ccr, v)
			for _, e := range engine.All() {
				rec, err := runCell(e.Name(), g, sys, cfg.cellConfig())
				if err != nil {
					rep.failf("engines: %v", err)
					continue
				}
				rec.CCR = ccr
				rep.Records = append(rep.Records, rec)
			}
		}
	}
	return rep
}

// enginesTables renders the engine comparison matrix; the "paper" column
// is the engine's section as the registry describes it.
func enginesTables(r *Report) []*table {
	t := &table{
		Title:  "Engine comparison — every registered engine on the same instances",
		Header: []string{"CCR", "v", "engine", "paper", "time", "states expanded", "generated", "SL", "optimal"},
	}
	for i := range r.Records {
		rec := &r.Records[i]
		section := ""
		if e, err := engine.Lookup(rec.Engine); err == nil {
			section, _ = engine.Describe(e)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", rec.CCR), fmt.Sprint(rec.V), rec.Engine, section,
			fmtDuration(rec.wall()), fmt.Sprint(rec.Expanded), fmt.Sprint(rec.Generated),
			fmt.Sprint(rec.Makespan), fmt.Sprint(rec.Optimal),
		})
	}
	t.Notes = append(t.Notes,
		"every exact engine must agree on SL when optimal; aeps may exceed it by at most its ε bound")
	return []*table{t}
}

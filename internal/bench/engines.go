package bench

import (
	"fmt"
	"time"

	"repro/internal/engine"
)

// EngineRow measures one registered engine on one instance.
type EngineRow struct {
	CCR      float64
	V        int
	Engine   string
	Section  string
	Time     time.Duration
	Expanded int64
	Length   int32
	Optimal  bool
}

// EnginesResult compares every engine in the registry on the same §4.1
// instances — the head-to-head the paper's unification claim implies. The
// harness iterates engine.All(), so an engine registered tomorrow appears
// here without a code change.
type EnginesResult struct {
	Rows   []EngineRow
	Config Config
	gate
}

// RunEngines measures every registered engine per CCR and size, under the
// same per-cell budget.
func RunEngines(cfg Config) *EnginesResult {
	cfg = cfg.withDefaults()
	res := &EnginesResult{Config: cfg}
	for _, ccr := range cfg.CCRs {
		for _, v := range cfg.Sizes {
			g, sys := cfg.instance(ccr, v)
			for _, e := range engine.All() {
				section, _ := engine.Describe(e)
				c, err := runCell(e.Name(), g, sys, cfg.cellConfig())
				if err != nil {
					res.failf("engines: %v", err)
					continue
				}
				res.Rows = append(res.Rows, EngineRow{
					CCR: ccr, V: v, Engine: e.Name(), Section: section,
					Time: c.Time, Expanded: c.Expanded, Length: c.Length, Optimal: c.Optimal,
				})
			}
		}
	}
	return res
}

// Tables renders the engine comparison matrix.
func (r *EnginesResult) Tables() []*table {
	t := &table{
		Title:  "Engine comparison — every registered engine on the same instances",
		Header: []string{"CCR", "v", "engine", "paper", "time", "states expanded", "SL", "optimal"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", row.CCR), fmt.Sprint(row.V), row.Engine, row.Section,
			fmtDuration(row.Time), fmt.Sprint(row.Expanded), fmt.Sprint(row.Length),
			fmt.Sprint(row.Optimal),
		})
	}
	t.Notes = append(t.Notes,
		"every exact engine must agree on SL when optimal; aeps may exceed it by at most its ε bound")
	return []*table{t}
}

package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunDeviation exercises the heuristic-deviation experiment: every
// heuristic is measured on every proven instance, deviations are
// non-negative, and both output formats render.
func TestRunDeviation(t *testing.T) {
	res := RunDeviation(fastCfg())
	for _, ccr := range res.CCRs {
		rows := res.Blocks[ccr]
		if len(rows) < 7 {
			t.Fatalf("ccr=%g: %d heuristics; want at least 7", ccr, len(rows))
		}
		for _, row := range rows {
			if row.Solved == 0 {
				t.Errorf("ccr=%g %s: no instance solved to optimality", ccr, row.Heuristic)
				continue
			}
			if row.AvgDev < 0 || row.MaxDev < row.AvgDev-1e-9 {
				t.Errorf("ccr=%g %s: inconsistent deviations avg=%.2f max=%.2f",
					ccr, row.Heuristic, row.AvgDev, row.MaxDev)
			}
			if row.Optimal > row.Solved {
				t.Errorf("ccr=%g %s: optimal count %d exceeds solved %d",
					ccr, row.Heuristic, row.Optimal, row.Solved)
			}
		}
	}
	var md, csv bytes.Buffer
	if err := Write(&md, "md", res); err != nil {
		t.Fatal(err)
	}
	if err := Write(&csv, "csv", res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "Heuristic deviation") {
		t.Error("markdown output missing title")
	}
	if !strings.Contains(csv.String(), "etf") {
		t.Error("csv output missing heuristic rows")
	}
}

package bench

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// TestRunDeviation exercises the heuristic-deviation experiment: every
// heuristic is measured on every instance, no heuristic beats a proven
// optimum, each heuristic's aggregate row is the average, worst and
// matched count over the proven instances only, and both output formats
// render.
func TestRunDeviation(t *testing.T) {
	res := RunDeviation(fastCfg())
	checkDeviationRows(t, res)
	// With one reference unproven, its instance drops out of every row.
	censored := *res
	censored.Records = append([]Record(nil), res.Records...)
	for i := range censored.Records {
		if censored.Records[i].Engine == "astar" {
			censored.Records[i].Optimal = false
			break
		}
	}
	checkDeviationRows(t, &censored)
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

// percent parses a rendered "12.3%" cell.
func percent(t *testing.T, cell string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return f
}

// count parses a rendered integer cell.
func count(t *testing.T, cell string) int {
	t.Helper()
	n, err := strconv.Atoi(cell)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return n
}

// checkDeviationRows recomputes each heuristic's aggregate from the
// records, over the instances whose A* reference is proven, and requires
// the rendered row to match it: instances > 0, optimal <= instances and
// max dev >= avg dev >= 0.
func checkDeviationRows(t *testing.T, res *Report) {
	t.Helper()
	type aggregate struct {
		sum, max       float64
		optimal, total int
	}
	want := map[string]*aggregate{}
	for i := range res.Records {
		rec := &res.Records[i]
		if rec.Engine == "astar" {
			continue
		}
		a := want[rec.Engine]
		if a == nil {
			a = &aggregate{}
			want[rec.Engine] = a
		}
		ref := sibling(t, res, rec, "astar", "")
		if !ref.Optimal {
			continue
		}
		if rec.Makespan < ref.Makespan {
			t.Errorf("%s on %s: length %d below the proven optimum %d", rec.Engine, rec.Instance, rec.Makespan, ref.Makespan)
		}
		dev := 100 * float64(rec.Makespan-ref.Makespan) / float64(ref.Makespan)
		a.sum += dev
		a.max = max(a.max, dev)
		a.total++
		if rec.Makespan == ref.Makespan {
			a.optimal++
		}
	}
	if len(want) < 7 {
		t.Fatalf("%d heuristics; want at least 7", len(want))
	}
	tables := res.Tables()
	if len(tables) != 1 || len(tables[0].Rows) != len(want) {
		t.Fatalf("tables = %+v, want one block with a row per heuristic", tables)
	}
	for _, row := range tables[0].Rows {
		avg, maxDev := percent(t, row[1]), percent(t, row[2])
		optimal, instances := count(t, row[3]), count(t, row[4])
		if instances == 0 {
			t.Errorf("%s: no instance solved to optimality", row[0])
			continue
		}
		if avg < 0 || maxDev < avg {
			t.Errorf("%s: inconsistent deviations avg=%.1f max=%.1f", row[0], avg, maxDev)
		}
		if optimal > instances {
			t.Errorf("%s: optimal count %d exceeds instances %d", row[0], optimal, instances)
		}
		a := want[row[0]]
		if a == nil {
			t.Errorf("%s: row for a heuristic with no records", row[0])
			continue
		}
		wantRow := []string{row[0],
			fmt.Sprintf("%.1f%%", a.sum/float64(a.total)), fmt.Sprintf("%.1f%%", a.max),
			fmt.Sprint(a.optimal), fmt.Sprint(a.total)}
		if strings.Join(row, "|") != strings.Join(wantRow, "|") {
			t.Errorf("row %v, want %v", row, wantRow)
		}
	}
}

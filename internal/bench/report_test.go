package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// decodeReport decodes a BENCH_<name>.json report strictly: a field the
// schema does not know fails the decode.
func decodeReport(t *testing.T, data []byte) *Report {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("report does not decode into Report: %v", err)
	}
	return &rep
}

// markdown renders a report's tables.
func markdown(t *testing.T, rep *Report) string {
	t.Helper()
	var md bytes.Buffer
	if err := Write(&md, "md", rep); err != nil {
		t.Fatal(err)
	}
	return md.String()
}

// TestWriteJSONEngines runs a tiny engines experiment and checks the
// machine-readable report round-trips: one record per engine run with its
// counters, a host block, and the same tables rendered from the decoded
// report as from the live one.
func TestWriteJSONEngines(t *testing.T) {
	cfg := Config{Sizes: []int{8}, CCRs: []float64{1.0}, Seed: 7, CellTimeout: 30 * time.Second}
	res := RunEngines(cfg)
	if len(res.Records) == 0 {
		t.Fatal("engines experiment produced no records")
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	rep := decodeReport(t, buf.Bytes())
	if rep.Experiment != "engines" || rep.GeneratedAt == "" || rep.Host.NumCPU == 0 {
		t.Fatalf("report header = %+v", rep)
	}
	if _, err := time.Parse(time.RFC3339, rep.GeneratedAt); err != nil {
		t.Fatalf("generated_at %q: %v", rep.GeneratedAt, err)
	}
	if len(rep.Records) != len(res.Records) {
		t.Fatalf("report has %d records for %d runs", len(rep.Records), len(res.Records))
	}
	seen := map[string]bool{}
	for _, rec := range rep.Records {
		seen[rec.Engine] = true
		if rec.Makespan <= 0 {
			t.Errorf("%s: makespan = %d, want > 0", rec.Engine, rec.Makespan)
		}
		if rec.Expanded > 0 && rec.Generated <= 0 {
			t.Errorf("%s: generated = %d with %d expanded", rec.Engine, rec.Generated, rec.Expanded)
		}
	}
	for _, want := range []string{"astar", "dfbb", "bnb"} {
		if !seen[want] {
			t.Errorf("report misses engine %q", want)
		}
	}
	if got, want := markdown(t, rep), markdown(t, res); got != want {
		t.Fatalf("decoded report renders\n%s\nlive report renders\n%s", got, want)
	}
}

// TestWriteJSONGenericTables checks an experiment whose tables aggregate
// over records (deviation) renders the same tables from its decoded JSON,
// which carries records but no rendered tables.
func TestWriteJSONGenericTables(t *testing.T) {
	cfg := Config{Sizes: []int{8}, CCRs: []float64{1.0}, Seed: 7, CellTimeout: 30 * time.Second}
	res := RunDeviation(cfg)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"tables"`) {
		t.Fatal("report JSON carries rendered tables")
	}
	rep := decodeReport(t, buf.Bytes())
	tables := rep.Tables()
	if len(tables) == 0 || tables[0].Title == "" || len(tables[0].Rows) == 0 {
		t.Fatalf("deviation report tables = %+v", tables)
	}
	if got, want := markdown(t, rep), markdown(t, res); got != want {
		t.Fatalf("decoded report renders\n%s\nlive report renders\n%s", got, want)
	}
}

// TestCommittedBaselines reads every BENCH_<name>.json at the repository
// root as a Report: each must be in the current schema, name its
// experiment, carry a host block and no gate failure, hold records with a
// schedule, and render its tables from the decoded report alone.
func TestCommittedBaselines(t *testing.T) {
	for _, name := range []string{"engines", "speedup", "pruning", "large"} {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			rep := decodeReport(t, data)
			if rep.Experiment != name {
				t.Errorf("experiment = %q, want %q", rep.Experiment, name)
			}
			if rep.Host.NumCPU == 0 || rep.Host.GOOS == "" {
				t.Errorf("host block = %+v", rep.Host)
			}
			if len(rep.Failures) > 0 {
				t.Errorf("baseline records gate failures: %v", rep.Failures)
			}
			if len(rep.Records) == 0 {
				t.Fatal("baseline has no records")
			}
			for _, rec := range rep.Records {
				if rec.Makespan <= 0 {
					t.Errorf("%s %s %s: makespan = %d", rec.Instance, rec.Engine, rec.Variant, rec.Makespan)
				}
			}
			tables := rep.Tables()
			if len(tables) == 0 {
				t.Fatal("baseline renders no tables")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("table %q has no rows", tb.Title)
				}
			}
		})
	}
}

package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/procgraph"
)

// fastCfg keeps harness tests quick: tiny sizes, tight budgets.
func fastCfg() Config {
	return Config{
		Sizes:       []int{8, 10},
		CCRs:        []float64{1.0},
		Seed:        7,
		CellBudget:  30_000,
		CellTimeout: 20 * time.Second,
		PPEs:        []int{2, 4},
		Epsilons:    []float64{0.2, 0.5},
		Fig7PPEs:    4,
		TargetProcs: func(v int) *procgraph.System { return procgraph.Complete(3) },
	}
}

func TestRunTable1(t *testing.T) {
	res := RunTable1(fastCfg())
	rows := res.Blocks[1.0]
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Astar.Optimal && r.Full.Optimal && r.Astar.Length != r.Full.Length {
			t.Errorf("v=%d: pruned and unpruned A* disagree: %d vs %d", r.V, r.Astar.Length, r.Full.Length)
		}
		if r.Astar.Optimal && r.Chen.Optimal && r.Astar.Length != r.Chen.Length {
			t.Errorf("v=%d: A* and Chen disagree: %d vs %d", r.V, r.Astar.Length, r.Chen.Length)
		}
		if r.Astar.Optimal && r.Full.Optimal && r.Astar.Expanded > r.Full.Expanded {
			t.Errorf("v=%d: pruning increased expansions: %d > %d", r.V, r.Astar.Expanded, r.Full.Expanded)
		}
	}
	var md, csv bytes.Buffer
	if err := Write(&md, "md", res); err != nil {
		t.Fatal(err)
	}
	if err := Write(&csv, "csv", res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "Table 1") || !strings.Contains(md.String(), "| v |") {
		t.Errorf("markdown output malformed:\n%s", md.String())
	}
	if !strings.Contains(csv.String(), "v,Chen (time)") {
		t.Errorf("csv output malformed:\n%s", csv.String())
	}
}

func TestRunFig6(t *testing.T) {
	res := RunFig6(fastCfg())
	pts := res.Series[1.0]
	if len(pts) != 4 { // 2 sizes x 2 PPE counts
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.Censored {
			continue
		}
		if p.WallSpeedup <= 0 || p.ModeledSpeedup <= 0 {
			t.Errorf("non-positive speedup: %+v", p)
		}
		if p.WorkRatio < 0.5 {
			t.Errorf("work ratio %v implausibly low", p.WorkRatio)
		}
	}
	var md bytes.Buffer
	if err := Write(&md, "md", res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "Figure 6") {
		t.Error("markdown missing title")
	}
}

func TestRunFig7(t *testing.T) {
	res := RunFig7(fastCfg())
	for _, eps := range []float64{0.2, 0.5} {
		pts := res.Series[1.0][eps]
		if len(pts) != 2 {
			t.Fatalf("eps=%g: got %d points", eps, len(pts))
		}
		for _, p := range pts {
			if p.Censored {
				continue
			}
			if p.DeviationPct < 0 || p.DeviationPct > 100*eps+1e-9 {
				t.Errorf("eps=%g v=%d: deviation %.2f%% outside [0, %.0f%%]",
					eps, p.V, p.DeviationPct, 100*eps)
			}
			if p.TimeRatio <= 0 {
				t.Errorf("eps=%g v=%d: nonpositive time ratio", eps, p.V)
			}
		}
	}
	var md bytes.Buffer
	if err := Write(&md, "md", res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "Figure 7") {
		t.Error("markdown missing title")
	}
}

func TestRunAblation(t *testing.T) {
	cfg := fastCfg()
	cfg.Sizes = []int{8}
	res := RunAblation(cfg)
	if len(res.Rows) != len(serialVariants()) {
		t.Fatalf("got %d rows, want %d", len(res.Rows), len(serialVariants()))
	}
	var want int32 = -1
	for _, r := range res.Rows {
		if !r.Optimal {
			continue
		}
		if want < 0 {
			want = r.Length
		} else if r.Length != want {
			t.Errorf("variant %q found SL %d, others %d", r.Variant, r.Length, want)
		}
	}
	var md bytes.Buffer
	if err := Write(&md, "md", res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "Ablation") {
		t.Error("markdown missing title")
	}
}

func TestRunDistribution(t *testing.T) {
	cfg := fastCfg()
	cfg.Sizes = []int{10}
	cfg.PPEs = []int{4}
	res := RunDistribution(cfg)
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	byPolicy := map[string]DistributionRow{}
	for _, r := range res.Rows {
		byPolicy[r.Policy] = r
	}
	hash := byPolicy["hash (ref. 15)"]
	rr := byPolicy["neighbor-rr (paper)"]
	if hash.Optimal && rr.Optimal && hash.WorkRatio > rr.WorkRatio {
		t.Errorf("hash work ratio %.2f should not exceed neighbor-rr %.2f", hash.WorkRatio, rr.WorkRatio)
	}
}

func TestRunEngines(t *testing.T) {
	cfg := fastCfg()
	cfg.Sizes = []int{8}
	res := RunEngines(cfg)
	if f := res.FailureList(); len(f) > 0 {
		t.Fatalf("engines experiment failed its gate: %v", f)
	}
	if len(res.Rows) < 5 {
		t.Fatalf("got %d rows; want one per registered engine (>= 5)", len(res.Rows))
	}
	var want int32 = -1
	for _, r := range res.Rows {
		if !r.Optimal || r.Engine == "aeps" {
			continue
		}
		if want < 0 {
			want = r.Length
		} else if r.Length != want {
			t.Errorf("engine %q found SL %d, others %d", r.Engine, r.Length, want)
		}
	}
	if want < 0 {
		t.Fatal("no exact engine proved optimality on the test instance")
	}
	var md bytes.Buffer
	if err := Write(&md, "md", res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "Engine comparison") {
		t.Error("markdown missing title")
	}
}

// An engine error must come back as an error naming the engine and the
// instance, never as a cell: the tables render a budget cut-off as "—",
// and a failed engine must not read as one. The experiment turns the
// error into a gate failure, which Write prints and cmd/icpp98bench exits
// non-zero on.
func TestEngineErrorFailsTheGate(t *testing.T) {
	cfg := fastCfg().withDefaults()
	g, sys := cfg.instance(1.0, 8)
	c, err := runCell("no-such-engine", g, sys, cfg.cellConfig())
	if err == nil {
		t.Fatalf("unknown engine measured as cell %+v, want an error", c)
	}
	for _, want := range []string{"no-such-engine", g.Name(), sys.Name()} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	res := &EnginesResult{Config: cfg}
	res.failf("engines: %v", err)
	var md bytes.Buffer
	if err := Write(&md, "md", res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "GATE FAILURE: engines: no-such-engine on "+g.Name()) {
		t.Errorf("report does not carry the gate failure:\n%s", md.String())
	}
}

func TestFullConfig(t *testing.T) {
	cfg := Full()
	if len(cfg.Sizes) != 12 || cfg.Sizes[11] != 32 {
		t.Errorf("full sizes = %v", cfg.Sizes)
	}
}

func TestFmtDuration(t *testing.T) {
	cases := map[time.Duration]string{
		2500 * time.Millisecond: "2.50s",
		15 * time.Millisecond:   "15.0ms",
		120 * time.Microsecond:  "120µs",
	}
	for d, want := range cases {
		if got := fmtDuration(d); got != want {
			t.Errorf("fmtDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestRunLarge(t *testing.T) {
	res := RunLarge(fastCfg())
	if len(res.Rows) != 2*len(largeSizes) {
		t.Fatalf("got %d rows, want %d (aeps + portfolio per size)", len(res.Rows), 2*len(largeSizes))
	}
	for _, row := range res.Rows {
		if row.V <= 64 {
			t.Errorf("large experiment ran a v=%d cell; every size must exceed the old 64-task mask", row.V)
		}
		if row.Length <= 0 {
			t.Errorf("v=%d %s: no schedule length recorded", row.V, row.Mode)
		}
		// Guarantee bookkeeping must be coherent in every cell: a proven
		// optimum reports bound exactly 1 (a budget-cut aeps cell may
		// legitimately report no guarantee), and the portfolio — which
		// races exact entrants whose HPlus static bound closes this
		// workload in a dive — must prove optimality outright.
		if row.Optimal && row.Bound != 1 {
			t.Errorf("v=%d %s: optimal with bound %g, want exactly 1", row.V, row.Mode, row.Bound)
		}
		if strings.HasPrefix(row.Mode, "portfolio:") && !row.Optimal {
			t.Errorf("v=%d %s: portfolio (with exact entrants) did not prove optimality", row.V, row.Mode)
		}
	}
	var md bytes.Buffer
	if err := Write(&md, "md", res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "Large instances") {
		t.Errorf("markdown output malformed:\n%s", md.String())
	}
}

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

// sibling returns the record of engine and variant on rec's instance.
func sibling(t *testing.T, rep *Report, rec *Record, engine, variant string) *Record {
	t.Helper()
	s := rep.find(func(x *Record) bool {
		return x.Instance == rec.Instance && x.Engine == engine && x.Variant == variant
	})
	if s == nil {
		t.Fatalf("%s: no %s/%q record", rec.Instance, engine, variant)
	}
	return s
}

// render returns the report's Markdown, failing the test when a title is
// missing.
func render(t *testing.T, rep *Report, title string) string {
	t.Helper()
	var md bytes.Buffer
	if err := Write(&md, "md", rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), title) {
		t.Errorf("markdown missing %q:\n%s", title, md.String())
	}
	return md.String()
}

func TestRunTable1(t *testing.T) {
	res := RunTable1(fastCfg())
	if len(res.Records) != 3*2 {
		t.Fatalf("got %d records, want 3 per size", len(res.Records))
	}
	for i := range res.Records {
		chen := &res.Records[i]
		if chen.Engine != "bnb" {
			continue
		}
		full := sibling(t, res, chen, "astar", "no-pruning")
		astar := sibling(t, res, chen, "astar", "")
		if astar.Optimal && full.Optimal && astar.Makespan != full.Makespan {
			t.Errorf("v=%d: pruned and unpruned A* disagree: %d vs %d", chen.V, astar.Makespan, full.Makespan)
		}
		if astar.Optimal && chen.Optimal && astar.Makespan != chen.Makespan {
			t.Errorf("v=%d: A* and Chen disagree: %d vs %d", chen.V, astar.Makespan, chen.Makespan)
		}
		if astar.Optimal && full.Optimal && astar.Expanded > full.Expanded {
			t.Errorf("v=%d: pruning increased expansions: %d > %d", chen.V, astar.Expanded, full.Expanded)
		}
	}
	md := render(t, res, "Table 1")
	if !strings.Contains(md, "| v |") {
		t.Errorf("markdown output malformed:\n%s", md)
	}
	var csv bytes.Buffer
	if err := Write(&csv, "csv", res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "v,Chen (time)") {
		t.Errorf("csv output malformed:\n%s", csv.String())
	}
}

func TestRunFig6(t *testing.T) {
	res := RunFig6(fastCfg())
	points := 0
	for i := range res.Records {
		par := &res.Records[i]
		if par.Engine != "parallel" {
			continue
		}
		points++
		serial := sibling(t, res, par, "astar", "")
		if !serial.Optimal || !par.Optimal {
			continue
		}
		if serial.WallMS/par.WallMS <= 0 || float64(serial.Expanded)/float64(par.CriticalWork) <= 0 {
			t.Errorf("non-positive speedup: serial %+v parallel %+v", serial, par)
		}
		if wr := float64(par.Expanded) / float64(serial.Expanded); wr < 0.5 {
			t.Errorf("v=%d PPEs=%d: work ratio %v implausibly low", par.V, par.Workers, wr)
		}
	}
	if points != 4 { // 2 sizes x 2 PPE counts
		t.Fatalf("got %d points", points)
	}
	render(t, res, "Figure 6")
}

func TestRunFig7(t *testing.T) {
	res := RunFig7(fastCfg())
	for _, eps := range []float64{0.2, 0.5} {
		points := 0
		for i := range res.Records {
			approx := &res.Records[i]
			if approx.Variant == "exact" || approx.Epsilon != eps {
				continue
			}
			points++
			exact := res.find(func(x *Record) bool { return x.Instance == approx.Instance && x.Variant == "exact" })
			if exact == nil {
				t.Fatalf("%s: no exact record", approx.Instance)
			}
			if !exact.Optimal || approx.BoundFactor == 0 {
				continue
			}
			dev := 100 * float64(approx.Makespan-exact.Makespan) / float64(exact.Makespan)
			if dev < 0 || dev > 100*eps+1e-9 {
				t.Errorf("eps=%g v=%d: deviation %.2f%% outside [0, %.0f%%]", eps, approx.V, dev, 100*eps)
			}
			if approx.WallMS/exact.WallMS <= 0 {
				t.Errorf("eps=%g v=%d: nonpositive time ratio", eps, approx.V)
			}
		}
		if points != 2 {
			t.Fatalf("eps=%g: got %d points", eps, points)
		}
	}
	render(t, res, "Figure 7")
}

// TestFig7EpsilonZero: an ε = 0 run is one more approximate row per
// (CCR, v), compared against the exact run, not a second exact run.
func TestFig7EpsilonZero(t *testing.T) {
	cfg := fastCfg()
	cfg.Sizes = []int{8}
	cfg.Epsilons = []float64{0, 0.5}
	res := RunFig7(cfg)
	if len(res.Failures) != 0 {
		t.Fatalf("failures: %v", res.Failures)
	}
	tables := res.Tables()
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want one per ε", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != 1 {
			t.Errorf("%s: %d rows, want one per (CCR, v): %v", tb.Title, len(tb.Rows), tb.Rows)
		}
	}
	if got := tables[0].Rows[0][2]; got != "0.0" {
		t.Errorf("ε = 0 deviation = %q, want 0.0", got)
	}
}

func TestRunAblation(t *testing.T) {
	cfg := fastCfg()
	cfg.Sizes = []int{8}
	res := RunAblation(cfg)
	if len(res.Records) != len(serialVariants()) {
		t.Fatalf("got %d records, want %d", len(res.Records), len(serialVariants()))
	}
	var want int32 = -1
	for _, r := range res.Records {
		if !r.Optimal {
			continue
		}
		if want < 0 {
			want = r.Makespan
		} else if r.Makespan != want {
			t.Errorf("variant %q found SL %d, others %d", r.Variant, r.Makespan, want)
		}
	}
	render(t, res, "Ablation")
}

func TestRunDistribution(t *testing.T) {
	cfg := fastCfg()
	cfg.Sizes = []int{10}
	cfg.PPEs = []int{4}
	res := RunDistribution(cfg)
	if len(res.Records) != 3 {
		t.Fatalf("got %d records, want the serial run and 2 policies", len(res.Records))
	}
	serial := &res.Records[0]
	hash := sibling(t, res, serial, "parallel", "hash (ref. 15)")
	rr := sibling(t, res, serial, "parallel", "neighbor-rr (paper)")
	if hash.Optimal && rr.Optimal && hash.Expanded > rr.Expanded {
		t.Errorf("hash work %d should not exceed neighbor-rr %d", hash.Expanded, rr.Expanded)
	}
	render(t, res, "distribution policy")
}

func TestRunEngines(t *testing.T) {
	cfg := fastCfg()
	cfg.Sizes = []int{8}
	res := RunEngines(cfg)
	if f := res.Failures; len(f) > 0 {
		t.Fatalf("engines experiment failed its gate: %v", f)
	}
	if len(res.Records) < 5 {
		t.Fatalf("got %d records; want one per registered engine (>= 5)", len(res.Records))
	}
	var want int32 = -1
	for _, r := range res.Records {
		if !r.Optimal || r.Engine == "aeps" {
			continue
		}
		if want < 0 {
			want = r.Makespan
		} else if r.Makespan != want {
			t.Errorf("engine %q found SL %d, others %d", r.Engine, r.Makespan, want)
		}
	}
	if want < 0 {
		t.Fatal("no exact engine proved optimality on the test instance")
	}
	render(t, res, "Engine comparison")
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
	res := newReport("engines", cfg)
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
	if len(res.Records) != 2*len(largeSizes) {
		t.Fatalf("got %d records, want %d (aeps + portfolio per size)", len(res.Records), 2*len(largeSizes))
	}
	for _, rec := range res.Records {
		if rec.V <= 64 {
			t.Errorf("large experiment ran a v=%d cell; every size must exceed the old 64-task mask", rec.V)
		}
		if rec.Makespan <= 0 {
			t.Errorf("v=%d %s: no schedule length recorded", rec.V, rec.Engine)
		}
		// Guarantee bookkeeping must be coherent in every cell: a proven
		// optimum reports bound exactly 1 (a budget-cut aeps cell may
		// legitimately report no guarantee), and the portfolio — which
		// races exact entrants whose HPlus static bound closes this
		// workload in a dive — must prove optimality outright.
		if rec.Optimal && rec.BoundFactor != 1 {
			t.Errorf("v=%d %s: optimal with bound %g, want exactly 1", rec.V, rec.Engine, rec.BoundFactor)
		}
		if rec.Engine == "portfolio" && (!rec.Optimal || rec.Variant == "") {
			t.Errorf("v=%d portfolio:%s: portfolio (with exact entrants) did not prove optimality", rec.V, rec.Variant)
		}
	}
	render(t, res, "Large instances")
}

// TestRunPruning runs the pruning ablation's corpus on a small budget: the
// gate (proven variants agree, the prunings fire, one layered-STG cell
// halves its expansions) must hold, and every cell reports each variant.
func TestRunPruning(t *testing.T) {
	cfg := fastCfg()
	cfg.CellBudget = 300_000
	res := RunPruning(cfg)
	if len(res.Failures) > 0 {
		t.Fatalf("pruning gate failed: %v", res.Failures)
	}
	cells, err := pruningCells(cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	perCell := map[string]int{}
	for _, rec := range res.Records {
		perCell[rec.Instance]++
		if rec.Engine != "astar" || rec.Generated <= 0 {
			t.Errorf("%s %s: record %+v, want astar with generated > 0", rec.Instance, rec.Variant, rec)
		}
	}
	for _, c := range cells {
		if n := perCell[c.g.Name()]; n != len(pruningVariants()) {
			t.Errorf("cell %s: %d records, want %d", c.g.Name(), n, len(pruningVariants()))
		}
	}
	render(t, res, "Pruning ablation")
}

// TestRunSpeedup runs one small speedup series: the determinism gate must
// hold, and every worker count has a dive and a budget record with
// generated children counted (the unit rate × divides by).
func TestRunSpeedup(t *testing.T) {
	cfg := Config{Sizes: []int{20}, PPEs: []int{2}, CellBudget: 50_000, Seed: 1998}
	res := RunSpeedup(cfg)
	if len(res.Failures) > 0 {
		t.Fatalf("speedup gate failed: %v", res.Failures)
	}
	for _, w := range []int{1, 2} {
		for _, mode := range []string{"dive", "budget"} {
			rec := res.find(func(x *Record) bool { return x.Engine == "native" && x.Workers == w && x.Variant == mode })
			if rec == nil {
				t.Fatalf("workers=%d: no %s record", w, mode)
			}
			if rec.Generated <= 0 {
				t.Errorf("workers=%d %s: generated = %d, want > 0", w, mode, rec.Generated)
			}
			if mode == "dive" && rec.BoundFactor != 1 {
				t.Errorf("workers=%d dive: bound %g, want exactly 1", w, rec.BoundFactor)
			}
		}
	}
	md := render(t, res, "Native engine")
	if !strings.Contains(md, "ns/child") {
		t.Errorf("speedup table lacks ns/child:\n%s", md)
	}
}

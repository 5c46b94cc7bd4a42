// Package bench regenerates every table and figure of the paper's
// evaluation (§4): Table 1 (serial A* vs the Chen & Yu branch-and-bound,
// with and without pruning), Figure 6 (parallel A* speedups on 2–16 PPEs),
// and Figure 7 (parallel Aε* deviation-from-optimal and time ratios), plus
// ablation sweeps over the individual pruning techniques, the heuristic
// function, and the parallel distribution policy.
//
// Workloads follow §4.1: random graphs with CCR ∈ {0.1, 1.0, 10.0}, sizes
// 10..32 step 2, node costs uniform with mean 40, out-degrees uniform with
// mean v/10, scheduled onto v fully-connected homogeneous target PEs. The
// paper's absolute cell times reach days on a 1998 Paragon; the default
// configuration therefore trims sizes and applies a per-cell state budget,
// reporting censored cells as "—" exactly like the paper's missing
// Chen v=32 entry. Use Full (or the -full flag of cmd/icpp98bench) for the
// complete sweep with a wall-clock budget per cell.
//
// Every experiment reports the same way: one Record per measured run, all
// of them in one Report per experiment. The report is what -json writes;
// the Markdown and CSV tables are computed from it alone, so a committed
// baseline renders the same tables as the live run that produced it.
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/procgraph"
	"repro/internal/taskgraph"
)

// Config parameterizes an experiment run. A report carries the config
// that produced it, so a baseline says how to regenerate it.
type Config struct {
	// Sizes are the graph sizes v; nil selects the fast default {10, 12, 14, 16}.
	Sizes []int `json:"sizes"`
	// CCRs are the communication-to-computation ratios; nil selects the
	// paper's {0.1, 1.0, 10.0}.
	CCRs []float64 `json:"ccrs"`
	// Seed drives the §4.1 workload generator.
	Seed uint64 `json:"seed"`
	// TargetProcs returns the target system for a given graph size; nil
	// selects the paper's v fully-connected homogeneous TPEs.
	TargetProcs func(v int) *procgraph.System `json:"-"`
	// CellBudget caps the expansions of one algorithm run on one instance
	// (0 = the default 300k). Cells that hit it are reported censored.
	CellBudget int64 `json:"cell_budget"`
	// CellTimeout additionally caps wall time per cell (0 = none).
	CellTimeout time.Duration `json:"cell_timeout_ns"`
	// PPEs are the parallel A* worker counts for Figure 6; nil selects the
	// paper's {2, 4, 8, 16}.
	PPEs []int `json:"ppes"`
	// Epsilons are the Aε* approximation factors for Figure 7; nil selects
	// the paper's {0.2, 0.5}.
	Epsilons []float64 `json:"epsilons"`
	// Fig7PPEs is the PPE count for Figure 7; 0 selects the paper's 16.
	Fig7PPEs int `json:"fig7_ppes"`
	// PeriodFloor is the parallel engine's minimum communication period
	// (0 = the paper's 2).
	PeriodFloor int `json:"period_floor"`
}

func (c Config) withDefaults() Config {
	if c.Sizes == nil {
		c.Sizes = []int{10, 12, 14, 16}
	}
	if c.CCRs == nil {
		c.CCRs = []float64{0.1, 1.0, 10.0}
	}
	if c.TargetProcs == nil {
		c.TargetProcs = func(v int) *procgraph.System { return procgraph.Complete(v) }
	}
	if c.CellBudget == 0 {
		c.CellBudget = 300_000
	}
	if c.PPEs == nil {
		c.PPEs = []int{2, 4, 8, 16}
	}
	if c.Epsilons == nil {
		c.Epsilons = []float64{0.2, 0.5}
	}
	if c.Fig7PPEs == 0 {
		c.Fig7PPEs = 16
	}
	return c
}

// Full returns the paper's complete sweep (sizes 10..32); expect long runs
// unless CellTimeout/CellBudget stay tight.
func Full() Config {
	var sizes []int
	for v := 10; v <= 32; v += 2 {
		sizes = append(sizes, v)
	}
	return Config{Sizes: sizes}
}

// cellConfig is the per-cell engine budget: the expansion cap and wall
// clock every measured run gets.
func (c Config) cellConfig() engine.Config {
	return engine.Config{MaxExpanded: c.CellBudget, Timeout: c.CellTimeout}
}

// parallelConfig is the per-cell budget of the parallel engine on q PPEs:
// the cell budget per PPE, at the configured communication period floor.
func (c Config) parallelConfig(q int) engine.Config {
	pcfg := c.cellConfig()
	pcfg.PPEs = q
	pcfg.PeriodFloor = c.PeriodFloor
	pcfg.MaxExpanded = c.CellBudget * int64(q)
	return pcfg
}

// runCell runs one registry engine on one instance under ecfg and times
// it. Every harness measurement of a registry engine flows through this
// single entry point, so adding an engine to the registry adds it to the
// benchmarks without new harness code. An engine error names the engine
// and the instance, and the experiment reports it as a gate failure: the
// tables render a cell that hit its budget as "—", and a failed engine
// must never read as one. The caller fills the record's CCR and Variant.
func runCell(name string, g *taskgraph.Graph, sys *procgraph.System, ecfg engine.Config) (Record, error) {
	start := time.Now()
	r, err := engine.Solve(context.Background(), name, g, sys, ecfg)
	if err != nil {
		return Record{}, fmt.Errorf("%s on %s (%s): %w", name, g.Name(), sys.Name(), err)
	}
	return newRecord(name, g, sys, ecfg, r, time.Since(start)), nil
}

// newRecord turns one timed run into a Record. runCell builds every
// registry engine's record here, the large experiment its portfolio
// race's, and the deviation experiment its list heuristics' (r nil: the
// caller sets the makespan). A censored run may carry no schedule (bnb
// cut off before any goal); its effort counters are still the datum the
// tables report.
func newRecord(name string, g *taskgraph.Graph, sys *procgraph.System, ecfg engine.Config, r *core.Result, wall time.Duration) Record {
	rec := Record{
		Instance: g.Name(), System: sys.Name(), V: g.NumNodes(), Engine: name,
		Workers: max(ecfg.PPEs, ecfg.Workers), Epsilon: ecfg.Epsilon,
		WallMS: float64(wall.Microseconds()) / 1000,
	}
	if r != nil {
		rec.Expanded, rec.Generated = r.Stats.Expanded, r.Stats.Generated
		rec.CriticalWork = r.Stats.CriticalWork
		rec.PrunedEquiv, rec.PrunedFTO = r.Stats.PrunedEquiv, r.Stats.PrunedFTO
		rec.Makespan, rec.Optimal, rec.BoundFactor = r.Length, r.Optimal, r.BoundFactor
	}
	return rec
}

// wall is the record's wall time at the microsecond resolution it was
// stored with.
func (rec *Record) wall() time.Duration {
	return time.Duration(math.Round(rec.WallMS*1000)) * time.Microsecond
}

// ratio is a/b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// table is one rendered result: a header row plus data rows.
type table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// WriteMarkdown renders the table as GitHub-flavored markdown.
func (t *table) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s\n\n", t.Title); err != nil {
		return err
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n> %s\n", n)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV renders the table as CSV (commas in cells are not expected; the
// harness produces plain numbers and short labels).
func (t *table) WriteCSV(w io.Writer) error {
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, ","))
	}
	return nil
}

// instance builds the §4.1 instance for one (ccr, v) cell.
func (c Config) instance(ccr float64, v int) (*taskgraph.Graph, *procgraph.System) {
	g := gen.MustRandom(gen.RandomConfig{
		V:    v,
		CCR:  ccr,
		Seed: c.Seed ^ (uint64(v) * 0xBF58476D1CE4E5B9),
		Name: fmt.Sprintf("paper-v%d-ccr%g", v, ccr),
	})
	return g, c.TargetProcs(v)
}

// layeredInstance builds the v-node layered STG workload of the large and
// speedup experiments: v/4 layers of width 4 (zero communication costs)
// on a complete:8 target.
func layeredInstance(v int, seed uint64) (*taskgraph.Graph, *procgraph.System, error) {
	g, err := gen.LayeredSTG(gen.LayeredConfig{Layers: max(v/4, 1), Width: 4, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	return g, procgraph.Complete(8), nil
}

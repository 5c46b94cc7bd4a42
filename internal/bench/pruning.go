package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/procgraph"
	"repro/internal/taskgraph"
)

// This file is the pruning-ablation experiment of the equivalent-task /
// fixed-task-order / HLoad overhaul: serial A* on a fixed corpus of shapes
// those prunings target (joins, fork-joins, layered DAGs with and without
// communication costs), measured as expansion-count and wall-time deltas
// against the pre-overhaul configuration. It doubles as a correctness gate:
// every variant is an exact search, so all proven-optimal variants of one
// cell must agree on the makespan, the new prunings must actually fire, and
// at least one layered-STG cell must show the headline >= 2x expansion
// reduction — the report's failures list violations and cmd/icpp98bench
// exits non-zero on them.

// pruningBaseline is the pre-overhaul serial configuration: the paper's
// §3.2 prunings with the paper's heuristic, the new prunings off.
var pruningBaseline = core.DisableEquivalentTasks | core.DisableFTO

// pruningVariants enumerates the ablated configurations. "baseline" is the
// reference every delta is measured against; the "no-*" variants each
// switch one technique off with the rest of the overhaul on; "all-hload"
// is the full overhaul including the strongest bound family.
func pruningVariants() []struct {
	Name string
	Cfg  engine.Config
} {
	return []struct {
		Name string
		Cfg  engine.Config
	}{
		{"baseline", engine.Config{Disable: pruningBaseline}},
		{"all", engine.Config{}},
		{"no-iso", engine.Config{Disable: core.DisableIsomorphism}},
		{"no-equiv", engine.Config{Disable: core.DisableEquivalentTasks}},
		{"no-fto", engine.Config{Disable: core.DisableFTO}},
		{"all-hload", engine.Config{HFunc: core.HLoad}},
	}
}

// pruningCell is one instance of the fixed corpus; the graph's name is
// the cell's.
type pruningCell struct {
	g   *taskgraph.Graph
	sys *procgraph.System
	// layeredSTG marks the cells eligible for the >= 2x headline check.
	layeredSTG bool
}

// pruningCells builds the corpus. The shapes are chosen for the prunings,
// not the prunings for the shapes: joins and width-1 fork-joins are the
// canonical FTO/equivalent-task structures, the layered cells are the
// repository's standard workload in both the zero-communication STG form
// and the communication-cost form.
func pruningCells(seed uint64) ([]pruningCell, error) {
	var cells []pruningCell

	// A join with distinct weights and comm costs: the forced order is
	// non-trivial (descending out-edge cost), so the FTO collapse replaces
	// 5! source orderings with one.
	bld := taskgraph.NewBuilder("join6")
	sink := bld.AddNode(3)
	for i := 0; i < 5; i++ {
		src := bld.AddNode(int32(4 + 2*i))
		bld.AddEdge(src, sink, int32(9-i))
	}
	cells = append(cells, pruningCell{bld.MustBuild(), procgraph.Complete(3), false})

	// Width-1 fork-join: the middle tasks are pairwise equivalent
	// (identical weight, parent, child, costs), the equivalent-task shape.
	fj1, err := gen.ForkJoin(5, 1, 9, 4)
	if err != nil {
		return nil, err
	}
	cells = append(cells, pruningCell{fj1, procgraph.Complete(3), false})

	// Depth-2 fork-join: parallel chains sharing a fork and a join — FTO
	// fires inside the chains, equivalence does not (distinct successors).
	fj2, err := gen.ForkJoin(4, 2, 9, 4)
	if err != nil {
		return nil, err
	}
	cells = append(cells, pruningCell{fj2, procgraph.Complete(3), false})

	// Layered STG cells (zero communication costs): the large-instance
	// workload shape, where the HLoad load-balance bound dominates.
	for _, lc := range []gen.LayeredConfig{
		{Layers: 6, Width: 2, Seed: seed},
		{Layers: 8, Width: 2, Seed: seed + 9},
	} {
		g, err := gen.LayeredSTG(lc)
		if err != nil {
			return nil, err
		}
		cells = append(cells, pruningCell{g, procgraph.Complete(4), true})
	}

	// A layered cell with communication costs (CCR 1), the general case.
	gl, err := gen.Layered(gen.LayeredConfig{Layers: 6, Width: 2, Seed: seed + 9})
	if err != nil {
		return nil, err
	}
	cells = append(cells, pruningCell{gl, procgraph.Complete(4), false})

	return cells, nil
}

// RunPruning measures every pruning variant on the fixed corpus and runs
// the correctness gate.
func RunPruning(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := newReport("pruning", cfg)
	cells, err := pruningCells(cfg.Seed)
	if err != nil {
		rep.failf("pruning: corpus generation failed: %v", err)
		return rep
	}
	headlineOK := false
	var totalEquiv, totalFTO int64
	for _, cell := range cells {
		var baseline, hload Record
		optLen := int32(-1)
		for _, variant := range pruningVariants() {
			ecfg := variant.Cfg
			ecfg.MaxExpanded = cfg.CellBudget
			ecfg.Timeout = cfg.CellTimeout
			rec, err := runCell("astar", cell.g, cell.sys, ecfg)
			if err != nil {
				rep.failf("pruning %s: %v", variant.Name, err)
				continue
			}
			rec.Variant = variant.Name
			rep.Records = append(rep.Records, rec)
			switch variant.Name {
			case "baseline":
				baseline = rec
			case "all-hload":
				hload = rec
			}
			totalEquiv += rec.PrunedEquiv
			totalFTO += rec.PrunedFTO
			// Gate: every exact search that proved optimality must agree.
			if rec.Optimal {
				if optLen < 0 {
					optLen = rec.Makespan
				} else if rec.Makespan != optLen {
					rep.failf("pruning %s: variant %s proved makespan %d, earlier variants proved %d",
						rec.Instance, variant.Name, rec.Makespan, optLen)
				}
			}
		}
		if cell.layeredSTG && hload.Optimal && baseline.Expanded > 0 && baseline.Expanded >= 2*hload.Expanded {
			headlineOK = true
		}
	}
	if totalEquiv+totalFTO == 0 {
		rep.failf("pruning: PrunedEquiv+PrunedFTO == 0 across the whole corpus — the new prunings never fired")
	}
	if !headlineOK {
		rep.failf("pruning: no layered-STG cell shows a >= 2x expansion reduction (all prunings + HLoad vs baseline)")
	}
	return rep
}

// pruningTables renders the pruning ablation with each variant's
// expansions against its cell's baseline.
func pruningTables(r *Report) []*table {
	t := &table{
		Title: "Pruning ablation — equivalent tasks, fixed task order, HLoad (serial A*)",
		Header: []string{"cell", "v", "system", "variant", "time", "states expanded", "generated",
			"vs baseline", "pruned equiv", "pruned fto", "SL", "optimal"},
	}
	for i := range r.Records {
		rec := &r.Records[i]
		vs := "—"
		base := r.find(func(x *Record) bool { return x.Instance == rec.Instance && x.Variant == "baseline" })
		if base != nil && base != rec && base.Expanded > 0 && rec.Expanded > 0 {
			vs = fmt.Sprintf("%.2fx", float64(base.Expanded)/float64(rec.Expanded))
		}
		t.Rows = append(t.Rows, []string{
			rec.Instance, fmt.Sprint(rec.V), rec.System, rec.Variant,
			fmtDuration(rec.wall()), fmt.Sprint(rec.Expanded), fmt.Sprint(rec.Generated), vs,
			fmt.Sprint(rec.PrunedEquiv), fmt.Sprint(rec.PrunedFTO),
			fmt.Sprint(rec.Makespan), fmt.Sprint(rec.Optimal),
		})
	}
	t.Notes = append(t.Notes,
		"baseline = the pre-overhaul configuration (§3.2 prunings, paper heuristic); vs-baseline is its expansions over the variant's",
		"every proven-optimal variant of one cell must agree on SL — disagreement fails the run")
	return []*table{t}
}

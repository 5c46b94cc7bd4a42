package bench

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// This file is the native-engine scaling experiment: real wall-clock
// self-relative speedup of the work-stealing multi-core engine, measured on
// the host it runs on, next to the paper-modeled speedup of the
// bulk-synchronous Paragon simulation (internal/parallel) on the same
// instances. Each (v, workers) cell produces two native records:
//
//   - a "dive" record: the HPlus heuristic proves the layered-STG optimum
//     in a handful of expansions. It contributes no meaningful timing, but
//     it is the determinism gate: the native makespan must equal serial
//     A*'s and BoundFactor must be exactly 1 at every worker count, or the
//     run is recorded as failed (CI's bench-smoke job exits non-zero on it).
//   - a "budget" record: the paper heuristic under a fixed expansion
//     budget — real search work at every worker count. The budget holds
//     expansions equal, but the work is in generated children, whose count
//     depends on the search order; so the table reports ns per generated
//     child and a rate speedup in generated children per second against
//     the workers=1 record, next to the plain wall-clock ratio.
//
// A "reference" record is the serial A* run every dive is pinned to, and
// per worker count above 1 a parallel-engine "dive" record — the same
// proof on the bulk-synchronous engine — carries the critical work the
// modeled speedup divides by. Budget rows carry no modeled speedup: a
// parallel run cut off by the budget splits it evenly over its PPEs, so
// the ratio would only restate the worker count.

// RunSpeedup measures the native engine's scaling: per size, a serial A*
// reference, then per worker count one proof (dive) cell and one
// fixed-budget throughput cell, plus the parallel engine's proof for the
// Paragon-modeled speedup. Sizes default to {80, 128} and worker counts
// to {1, 2, 4, 8}; every series is self-relative to workers=1, which is
// added when absent.
func RunSpeedup(cfg Config) *Report {
	if cfg.Sizes == nil {
		cfg.Sizes = []int{80, 128}
	}
	workerCounts := []int{1, 2, 4, 8}
	if cfg.PPEs != nil {
		workerCounts = append([]int{1}, cfg.PPEs...)
	}
	slices.Sort(workerCounts)
	cfg.PPEs = slices.Compact(workerCounts)
	cfg = cfg.withDefaults()
	rep := newReport("speedup", cfg)

	for _, v := range cfg.Sizes {
		g, sys, err := layeredInstance(v, cfg.Seed)
		if err != nil {
			rep.failf("v=%d: workload generation failed: %v", v, err)
			continue
		}
		// The layered generator rounds v down to a multiple of its layer
		// width; the records carry the size actually solved.
		v = g.NumNodes()

		// Serial A* reference with the strengthened heuristic: the optimum
		// every dive cell is pinned to.
		refCfg := cfg.cellConfig()
		refCfg.HFunc = core.HPlus
		ref, err := runCell("astar", g, sys, refCfg)
		if err != nil {
			rep.failf("v=%d: serial reference failed: %v", v, err)
			continue
		}
		ref.Variant = "reference"
		rep.Records = append(rep.Records, ref)
		if !ref.Optimal {
			rep.failf("v=%d: serial reference did not prove optimality under the cell budget", v)
			continue
		}

		for _, w := range cfg.PPEs {
			// Dive cell: prove the optimum, gate determinism.
			diveCfg := refCfg
			diveCfg.Workers = w
			if dive, err := runCell("native", g, sys, diveCfg); err != nil {
				// Record the gate failure but still measure the budget cell:
				// a broken dive must not silently zero the scaling series.
				rep.failf("v=%d workers=%d: native dive failed: %v", v, w, err)
			} else {
				if dive.Makespan != ref.Makespan {
					rep.failf("v=%d workers=%d: native makespan %d differs from serial A* optimum %d", v, w, dive.Makespan, ref.Makespan)
				}
				if dive.BoundFactor != 1 {
					rep.failf("v=%d workers=%d: native BoundFactor %g, want exactly 1", v, w, dive.BoundFactor)
				}
				dive.Variant = "dive"
				rep.Records = append(rep.Records, dive)
			}

			// Budget cell: real search work under the paper heuristic.
			budCfg := cfg.cellConfig()
			budCfg.Workers = w
			bud, err := runCell("native", g, sys, budCfg)
			if err != nil {
				rep.failf("v=%d workers=%d: native budget cell failed: %v", v, w, err)
				continue
			}
			bud.Variant = "budget"
			rep.Records = append(rep.Records, bud)

			// Paragon-modeled comparison at the same worker count, on the
			// dive's proof.
			if w > 1 {
				pcfg := refCfg
				pcfg.PPEs = w
				pcfg.PeriodFloor = cfg.PeriodFloor
				par, err := runCell("parallel", g, sys, pcfg)
				if err != nil {
					rep.failf("v=%d workers=%d: parallel model cell failed: %v", v, w, err)
					continue
				}
				par.Variant = "dive"
				rep.Records = append(rep.Records, par)
			}
		}
	}
	return rep
}

// speedupTables renders the native records of the speedup matrix, each
// against the workers=1 record of its (instance, mode) series: wall × is
// the wall-time ratio, rate × the ratio of generated children per second,
// and modeled × (dive rows) the workers=1 expansions over the parallel
// engine's critical work on the same proof at the same worker count.
func speedupTables(r *Report) []*table {
	t := &table{
		Title: "Native engine — work-stealing multi-core speedup (self-relative)",
		Header: []string{"v", "workers", "mode", "time", "states expanded", "generated", "ns/child",
			"SL", "optimal", "bound", "wall ×", "rate ×", "modeled ×"},
	}
	for i := range r.Records {
		rec := &r.Records[i]
		if rec.Engine != "native" {
			continue
		}
		base := r.find(func(x *Record) bool {
			return x.Instance == rec.Instance && x.Engine == "native" && x.Variant == rec.Variant && x.Workers == 1
		})
		var wallX, rateX float64
		if base != nil {
			wallX = ratio(base.WallMS, rec.WallMS)
			rateX = ratio(ratio(float64(rec.Generated), rec.WallMS), ratio(float64(base.Generated), base.WallMS))
		}
		modeled := "—"
		par := r.find(func(x *Record) bool {
			return x.Instance == rec.Instance && x.Engine == "parallel" && x.Variant == "dive" && x.Workers == rec.Workers
		})
		if rec.Variant == "dive" && base != nil && par != nil && par.Optimal && par.CriticalWork > 0 {
			modeled = fmt.Sprintf("%.2f", float64(base.Expanded)/float64(par.CriticalWork))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(rec.V), fmt.Sprint(rec.Workers), rec.Variant, fmtDuration(rec.wall()),
			fmt.Sprint(rec.Expanded), fmt.Sprint(rec.Generated),
			fmt.Sprintf("%.0f", ratio(rec.WallMS*1e6, float64(rec.Generated))),
			fmt.Sprint(rec.Makespan), fmt.Sprint(rec.Optimal), boundString(rec),
			fmt.Sprintf("%.2f", wallX), fmt.Sprintf("%.2f", rateX), modeled,
		})
	}
	t.Notes = append(t.Notes,
		"layered STG workload (zero communication costs), complete:8 target",
		"dive rows: HPlus heuristic to a proven optimum — the determinism gate (makespan and BoundFactor pinned to serial A*)",
		fmt.Sprintf("budget rows: paper heuristic under a %d-expansion budget; the budget holds expansions equal, not generated children, so rate × (generated children per second) and ns/child are the per-unit-of-work figures — all × columns are self-relative to workers=1 on this host", r.Config.CellBudget),
		fmt.Sprintf("wall-clock speedup is capped by GOMAXPROCS=%d / NumCPU=%d on this host; modeled × (dive rows only) is the Paragon-model speedup of the bulk-synchronous engine proving the same optimum (DESIGN.md §5)", r.Host.GoMaxProcs, r.Host.NumCPU))
	if len(r.Failures) > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("DETERMINISM GATE FAILED: %d violation(s), see report", len(r.Failures)))
	}
	return []*table{t}
}

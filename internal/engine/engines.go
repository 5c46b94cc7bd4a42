package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bnb"
	"repro/internal/core"
	"repro/internal/dfbb"
	"repro/internal/native"
	"repro/internal/parallel"
)

// funcEngine adapts a search function plus metadata to the Engine
// contract.
type funcEngine struct {
	name    string
	section string
	desc    string
	// epsilon, when non-nil, decides from cfg.Epsilon the ε the engine
	// searches under; nil passes cfg.Epsilon through.
	epsilon func(cfgEpsilon float64) float64
	search  func(m *core.Model, opt core.Options, cfg Config, s core.Start) (core.Outcome, error)
}

func (e *funcEngine) Name() string { return e.name }

func (e *funcEngine) Describe() (string, string) { return e.section, e.desc }

// Solve runs the engine's search through the engine boundary (core.Run),
// which settles U, certifies the outcome and validates the schedule: every
// engine's result leaves the registry through here, whichever layer asked
// for it.
func (e *funcEngine) Solve(ctx context.Context, m *core.Model, cfg Config) (*core.Result, error) {
	opt := searchOptions(ctx, cfg)
	if e.epsilon != nil {
		opt.Epsilon = e.epsilon(cfg.Epsilon)
	}
	res, err := core.Run(m, opt, func(s core.Start) (core.Outcome, error) { return e.search(m, opt, cfg, s) })
	if errors.Is(err, ErrInvalidResult) {
		return nil, fmt.Errorf("engine %s: %w", e.name, err)
	}
	return res, err
}

// ErrInvalidResult marks a result an engine returned that is not a
// feasible schedule of the length it reports: an engine bug, never an
// input the caller can fix.
var ErrInvalidResult = core.ErrInvalidResult

// searchOptions builds from cfg the search settings every engine shares,
// with the budget checker wired in as Stop. Each engine reads the fields
// it has a use for (see Config).
func searchOptions(ctx context.Context, cfg Config) core.Options {
	return core.Options{
		Disable:    cfg.Disable,
		Epsilon:    cfg.Epsilon,
		HFunc:      cfg.HFunc,
		UpperBound: cfg.UpperBound,
		Tracer:     cfg.Tracer,
		Progress:   cfg.Progress,
		Stop:       cfg.stopFunc(ctx),
	}
}

// The ε rules of the exact/ε registry pairs (astar/aeps, native/native-eps):
// the exact name never searches under ε, and the ε name defaults it.
func exactSearch(float64) float64 { return 0 }

func boundedSearch(eps float64) float64 {
	if eps <= 0 {
		return 0.2
	}
	return eps
}

func searchAStar(m *core.Model, opt core.Options, _ Config, s core.Start) (core.Outcome, error) {
	return core.Search(m, opt, s), nil
}

func searchNative(m *core.Model, opt core.Options, cfg Config, s core.Start) (core.Outcome, error) {
	return native.Search(m, native.Options{Options: opt, Workers: cfg.Workers, TracerFor: cfg.TracerFor}, s), nil
}

func init() {
	Register(&funcEngine{
		name:    "astar",
		section: "§3.1–3.2",
		desc:    "serial A*: optimal, all prunings, memory grows with generated states",
		epsilon: exactSearch,
		search:  searchAStar,
	})
	Register(&funcEngine{
		name:    "aeps",
		section: "§3.4",
		desc:    "serial Aε*: within (1+ε) of optimal (default ε 0.2), FOCAL-list search",
		epsilon: boundedSearch,
		search:  searchAStar,
	})
	Register(&funcEngine{
		name:    "dfbb",
		section: "§1 (memory)",
		desc:    "depth-first branch-and-bound: optimal, O(v) retained states",
		search: func(m *core.Model, opt core.Options, cfg Config, s core.Start) (core.Outcome, error) {
			return dfbb.Search(m, dfbb.Options{Options: opt, UseVisited: cfg.UseVisited}, s), nil
		},
	})
	Register(&funcEngine{
		name:    "ida",
		section: "§1 (memory)",
		desc:    "iterative-deepening A*: optimal, no OPEN/CLOSED lists at all",
		search: func(m *core.Model, opt core.Options, _ Config, s core.Start) (core.Outcome, error) {
			return dfbb.SearchIDA(m, opt, s), nil
		},
	})
	Register(&funcEngine{
		name:    "bnb",
		section: "§2, §4.2",
		desc:    "Chen & Yu branch-and-bound baseline: optimal, expensive per-state bound",
		search: func(m *core.Model, opt core.Options, _ Config, _ core.Start) (core.Outcome, error) {
			return bnb.Search(m, opt), nil
		},
	})
	Register(&funcEngine{
		name:    "native",
		section: "§4.4 (multi-core)",
		desc:    "work-stealing multi-core A*: optimal, global sharded dedup, scales with real cores",
		epsilon: exactSearch,
		search:  searchNative,
	})
	Register(&funcEngine{
		name:    "native-eps",
		section: "§4.4 (multi-core)",
		desc:    "work-stealing multi-core Aε*: within (1+ε) of optimal (default ε 0.2)",
		epsilon: boundedSearch,
		search:  searchNative,
	})
	Register(&funcEngine{
		name:    "parallel",
		section: "§3.3, §4.4",
		desc:    "bulk-synchronous parallel A*/Aε* on q PPE workers (default 4)",
		search: func(m *core.Model, opt core.Options, cfg Config, s core.Start) (core.Outcome, error) {
			ppes := cfg.PPEs
			if ppes < 1 {
				ppes = 4
			}
			return parallel.Search(m, parallel.Options{
				Options:      opt,
				PPEs:         ppes,
				Interconnect: cfg.Interconnect,
				PeriodFloor:  cfg.PeriodFloor,
				Distribution: cfg.Distribution,
				TracerFor:    cfg.TracerFor,
			}, s)
		},
	})
}

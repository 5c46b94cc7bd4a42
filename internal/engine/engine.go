// Package engine unifies every search engine of the reproduction behind one
// interface, one configuration struct, and one registry.
//
// The paper's central claim is that a single state-space formulation (§3.1)
// supports many interchangeable search techniques — serial A* and the
// bounded-suboptimal Aε*, the memory-light depth-first engines, the Chen &
// Yu branch-and-bound baseline, and the bulk-synchronous parallel A*. This
// package is that claim as architecture: each engine package implements the
// same Engine contract over a shared core.Model, registers itself by name,
// and is selected, benchmarked, batched, or raced (see internal/solverpool)
// without the caller knowing which technique runs.
//
// The package also owns the one cutoff implementation every engine shares:
// Budget folds context cancellation, a wall-clock deadline, and an
// expansion cap into a single Stop func that the engines poll once per
// expansion — the per-engine Deadline/MaxExpanded plumbing this replaced
// checked at diverging cadences and could not be cancelled externally.
// That per-expansion poll is also what makes the layers above responsive:
// a portfolio race (internal/solverpool) or a network job cancellation
// (internal/server) frees its worker within one expansion.
//
// Registered engines optionally implement Describer; Names, All, and
// Describe drive every listing surface (the CLI `engines` subcommand, the
// daemon's /v1/engines endpoint, README and bench tables).
package engine

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/procgraph"
	"repro/internal/taskgraph"
)

// Engine is one search technique over the shared §3.1 state space. An
// Engine must be safe for concurrent use: Solve may be called from many
// goroutines at once (the solverpool batch and portfolio services do), so
// all mutable search state lives in the call, none in the receiver.
type Engine interface {
	// Name is the registry key, e.g. "astar", "dfbb", "parallel".
	Name() string
	// Solve searches the model under cfg. Cancelling ctx stops the search
	// promptly; the engine then returns its best incumbent (or the
	// schedule that set U) with Optimal=false rather than an error.
	Solve(ctx context.Context, m *core.Model, cfg Config) (*core.Result, error)
}

// Describer is optionally implemented by registered engines to document
// themselves (CLI listings, README tables, bench captions).
type Describer interface {
	// Describe returns (paper section, one-line description).
	Describe() (section, desc string)
}

// Config is the consolidated engine configuration. One struct serves every
// engine; fields an engine has no use for are ignored (documented per
// field). The zero value runs the full §3.2 algorithm with no cutoffs.
type Config struct {
	// Disable switches off individual §3.2 prunings (engines: all but bnb,
	// which never applies them).
	Disable core.Disable
	// Epsilon is the ε of the bounded-suboptimal Aε* search (§3.4): a
	// result is within (1+Epsilon) of optimal. The registry pairs astar/aeps
	// and native/native-eps each run one search and differ only in their ε
	// rule: astar and native are exact and ignore Epsilon; aeps and
	// native-eps use it, and <= 0 selects 0.2. parallel uses it as given
	// (0 is exact); dfbb, ida and bnb are exact and ignore it.
	Epsilon float64
	// HFunc selects the heuristic function (all but bnb).
	HFunc core.HFunc
	// UpperBound, when > 0, overrides the §3.2 upper bound U (all but
	// bnb).
	UpperBound int32

	// MaxExpanded, when > 0, aborts the search after that many expansions
	// (total across PPEs for the parallel engine) and returns the best
	// schedule found so far with Optimal=false.
	MaxExpanded int64
	// Timeout, when > 0, aborts the search that long after Solve is called,
	// likewise. Callers wanting an absolute deadline or external
	// cancellation use the Solve context instead.
	Timeout time.Duration

	// Tracer, when non-nil, records the search tree (astar and aeps; the
	// parallel and native engines use TracerFor).
	Tracer core.Tracer
	// TracerFor, when non-nil, supplies one search-tree tracer per PPE of
	// the parallel engine (per worker of the native engines).
	TracerFor func(ppe int) core.Tracer
	// Progress, when non-nil, receives the search's Stats and gauges live
	// (all engines; see core.Progress).
	Progress *core.Progress

	// PPEs is the parallel engine's worker count (0 selects 4).
	PPEs int
	// Workers is the native engine's worker count (0 selects GOMAXPROCS —
	// one worker per schedulable core; the engine clamps excessive values).
	Workers int
	// Interconnect is the parallel engine's PPE topology (nil selects a
	// near-square mesh).
	Interconnect *procgraph.System
	// PeriodFloor is the parallel engine's minimum communication period
	// (0 selects the paper's 2).
	PeriodFloor int
	// Distribution selects the parallel engine's state-placement policy.
	Distribution parallel.Distribution

	// UseVisited enables the dfbb engine's optional duplicate table.
	UseVisited bool
}

// Budget is the single cutoff implementation shared by every engine: it
// folds the Solve context, an optional wall-clock deadline, and an optional
// expansion cap into one Stop predicate. Every source is consulted on every
// poll — the serial engines poll once per expansion, the parallel engine
// once per round — replacing the every-512/every-1024/unchecked cadences
// the engines used to hand-roll, which could overrun a deadline by up to a
// thousand expansions and could not be cancelled externally at all. A poll
// costs two clock reads against an expansion that allocates states and
// touches hash tables, so exactness is cheap.
//
// A Budget is single-use: each Solve call builds its own.
type Budget struct {
	ctx         context.Context
	maxExpanded int64
	deadline    time.Time
}

// NewBudget builds a budget for one solve: ctx may be nil (never
// cancelled), maxExpanded <= 0 means unlimited, and a zero timeout means no
// deadline.
func NewBudget(ctx context.Context, maxExpanded int64, timeout time.Duration) *Budget {
	b := &Budget{ctx: ctx, maxExpanded: maxExpanded}
	if timeout > 0 {
		b.deadline = time.Now().Add(timeout)
	}
	return b
}

// Stop reports whether the search must abort: the expansion cap was
// reached, the context was cancelled, or the deadline passed. A nil Budget
// never stops.
func (b *Budget) Stop(expanded int64) bool {
	if b == nil {
		return false
	}
	if b.maxExpanded > 0 && expanded >= b.maxExpanded {
		return true
	}
	if b.ctx != nil {
		select {
		case <-b.ctx.Done():
			return true
		default:
		}
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		return true
	}
	return false
}

// stopFunc converts cfg's budget fields plus the Solve context into the
// Stop predicate handed to the engine packages; it returns nil when there
// is nothing to enforce (so unbudgeted solves skip the poll entirely).
func (c Config) stopFunc(ctx context.Context) func(int64) bool {
	if c.MaxExpanded <= 0 && c.Timeout <= 0 && (ctx == nil || ctx.Done() == nil) {
		return nil
	}
	return NewBudget(ctx, c.MaxExpanded, c.Timeout).Stop
}

// Solve is the convenience entry point: it looks up the named engine,
// builds the model, and runs the search. Callers solving one instance
// repeatedly (or racing engines on it) should build the model once and call
// the Engine directly — or go through internal/solverpool, which memoizes
// models by instance digest.
func Solve(ctx context.Context, name string, g *taskgraph.Graph, sys *procgraph.System, cfg Config) (*core.Result, error) {
	e, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	m, err := core.NewModel(g, sys)
	if err != nil {
		return nil, err
	}
	return e.Solve(ctx, m, cfg)
}

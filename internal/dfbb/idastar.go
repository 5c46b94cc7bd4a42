package dfbb

import (
	"time"

	"repro/internal/core"
	"repro/internal/procgraph"
	"repro/internal/taskgraph"
)

// SolveIDA runs iterative-deepening A*: depth-first passes bounded by an f
// threshold that starts at the graph's static lower bound and rises each
// pass to the smallest f that exceeded it. Memory stays O(v) — no OPEN
// list, no CLOSED table — at the price of re-expanding the shallow part of
// the contour once per pass.
//
// Optimality: at the end of a pass, every state with f <= threshold has
// been explored and every unexplored state has f >= nextThreshold, so once
// the incumbent's length is <= nextThreshold no unexplored branch can beat
// it. Passes strictly increase the threshold (bounded by U), guaranteeing
// termination. Options.UseVisited is ignored: a duplicate table would defeat
// the engine's purpose.
func SolveIDA(g *taskgraph.Graph, sys *procgraph.System, opt Options) (*core.Result, error) {
	m, err := core.NewModel(g, sys)
	if err != nil {
		return nil, err
	}
	return SolveIDAModel(m, opt)
}

// SolveIDAModel is SolveIDA for a prebuilt model.
func SolveIDAModel(m *core.Model, opt Options) (*core.Result, error) {
	started := time.Now()
	d, fallback, err := newSearcher(m, opt.Options)
	if err != nil {
		return nil, err
	}

	d.threshold = m.StaticLowerBound()
	if d.threshold < 1 {
		d.threshold = 1
	}
	for {
		d.nextThresh = inf
		d.dfs(core.Root(), 1)
		d.stats.Rounds++ // Rounds doubles as the IDA* pass count
		if d.stopped {
			break
		}
		if d.incumbent != nil && d.incumbentLen <= d.nextThresh {
			break // nothing unexplored can beat the incumbent
		}
		if d.nextThresh >= d.incumbentLen || d.nextThresh == inf {
			// Every unexplored branch is at or above the best length in
			// hand (the incumbent, or the untouched upper bound U, which
			// the fallback schedule realizes).
			break
		}
		d.threshold = d.nextThresh
	}
	return d.result(fallback, started), nil
}

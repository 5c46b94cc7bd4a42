package dfbb

import "repro/internal/core"

// SearchIDA runs iterative-deepening A* under s: depth-first passes
// bounded by an f threshold that starts at the graph's static lower bound
// and rises each pass to the smallest f that exceeded it. Memory stays
// O(v) — no OPEN list, no CLOSED table — at the price of re-expanding the
// shallow part of the contour once per pass.
//
// Optimality: at the end of a pass, every state with f <= threshold has
// been explored and every unexplored state has f >= nextThreshold, so once
// the incumbent's length is <= nextThreshold no unexplored branch can beat
// it. Passes strictly increase the threshold (bounded by U), guaranteeing
// termination. It keeps no duplicate table: one would defeat the engine's
// purpose.
func SearchIDA(m *core.Model, opt core.Options, s core.Start) core.Outcome {
	d := newSearcher(m, opt, s)

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
			// Every unexplored branch is at or above the incumbent bound
			// (the best length in hand, or its seed from U).
			break
		}
		d.threshold = d.nextThresh
	}
	return d.outcome()
}

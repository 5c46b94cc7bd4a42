// Package dfbb implements two memory-light optimal scheduling engines on
// top of the core search machinery: depth-first branch-and-bound (DFBB) and
// iterative-deepening A* (IDA*).
//
// The paper motivates them directly: §1 notes that for state-space
// schedulers "a huge memory requirement to store the search states is also
// another common problem" — the A* OPEN/CLOSED lists of §3.1 grow with the
// number of generated states, while the engines here keep only the DFS
// spine (O(v) states, v = task count) plus, optionally for DFBB, a
// duplicate table traded back in for speed. Both use the identical state
// space, expansion operator, admissible cost function f = g + h, and §3.2
// prunings of the A* engine (via core.Expander), so their optima coincide
// with A*'s — asserted by the cross-check tests — and they slot into the
// same Result/Stats reporting.
//
// DFBB explores children best-f-first and prunes against a falling
// incumbent, seeded with the §3.2 upper bound U: a branch with f >=
// incumbent cannot improve on a complete schedule already in hand. When
// the schedule core.Run holds in reserve is no longer than U, a search
// that exhausts without beating U proves that schedule optimal (core.Run
// returns it); when a caller's U is below the reserve schedule, the seed
// is U+1, so schedules of length U are still found.
//
// IDA* runs successive depth-first passes bounded by an f threshold,
// raising the threshold each pass to the smallest f that exceeded it. The
// pass in which the incumbent's length no longer exceeds the next threshold
// proves optimality. Thresholds strictly increase, so termination is
// guaranteed even though no visited table is kept at all.
package dfbb

import (
	"sort"

	"repro/internal/core"
	"repro/internal/schedule"
)

// Options configures DFBB: the shared search settings plus the duplicate
// table. Both engines ignore Epsilon (they are exact) and Tracer: each DFS
// frame rewinds its arena on return, which would corrupt a tracer that
// keeps the states it is handed. Progress is fed at every cutoff poll.
type Options struct {
	core.Options
	// UseVisited enables the full duplicate-state table: memory
	// proportional to the states generated, bought back as time — the
	// inverse of the engines' usual trade.
	UseVisited bool
}

const inf = int32(1) << 30

// Search runs depth-first branch-and-bound under s and returns a provably
// optimal schedule, or the best incumbent when a cutoff fires.
func Search(m *core.Model, opt Options, s core.Start) core.Outcome {
	d := newSearcher(m, opt.Options, s)
	if opt.UseVisited {
		d.visited = core.NewVisited()
	}
	d.dfs(core.Root(), 1)
	if d.visited != nil {
		d.stats.VisitedSize = d.visited.Len()
	}
	return d.outcome()
}

// searcher holds the mutable search state shared by DFBB and IDA*.
type searcher struct {
	m       *core.Model
	exp     *core.Expander
	visited *core.Visited
	stats   core.Stats

	// incumbent is the best complete schedule found, materialized at
	// discovery time (its goal state lives in an arena frame that is
	// rewound when the DFS frame returns); incumbentLen its length,
	// seeded from the upper bound U (with no schedule) so the bound prunes
	// from the first expansion.
	incumbent    *schedule.Schedule
	incumbentLen int32

	// IDA* pass bookkeeping.
	threshold  int32
	nextThresh int32

	stop    func(expanded int64) bool
	stopped bool
	meter   *core.Meter // nil without a Progress

	children []*core.State // reusable collection buffer
}

func newSearcher(m *core.Model, opt core.Options, s core.Start) *searcher {
	opt.Tracer = nil // see Options
	d := &searcher{
		m:            m,
		incumbentLen: inf,
		threshold:    inf, // DFBB: no pass bound
		nextThresh:   inf,
		stop:         opt.Stop,
		meter:        opt.Progress.Meter(),
	}
	if s.UB > 0 {
		// Look for schedules shorter than U when the reserve schedule is one
		// no longer than U, and no longer than U otherwise.
		d.incumbentLen = s.UB
		if s.Fallback > s.UB {
			d.incumbentLen++
		}
	}
	d.stats.UpperBound = s.UB
	d.stats.StaticLB = m.StaticLowerBound()
	d.exp = m.NewExpander(opt, &d.stats)
	// The incumbent bound subsumes the static U prune (it starts at U or
	// U+1), so the expander's separate UB check stays off and all pruning
	// is counted under PrunedBound.
	d.exp.Bound = func() int32 {
		if d.incumbentLen == inf {
			return 0
		}
		return d.incumbentLen
	}
	return d
}

// cut reports whether the caller-supplied cutoff has fired (and latches
// it), publishing the search's progress first.
func (d *searcher) cut() bool {
	if d.stopped {
		return true
	}
	d.publish()
	if d.stop != nil && d.stop(d.stats.Expanded) {
		d.stopped = true
		return true
	}
	return false
}

// publish hands the Stats to the Progress, if any. The children awaiting
// exploration on the DFS stack are the engine's OPEN; it has an incumbent
// but no frontier, since a depth-first f is no lower bound.
func (d *searcher) publish() {
	if d.meter == nil {
		return
	}
	inc := d.incumbentLen
	if inc == inf {
		inc = 0
	}
	d.meter.Publish(&d.stats, len(d.children), inc, 0)
}

// dfs explores the subtree under s depth-first, best-f-first, pruning
// against the incumbent (and, for IDA* passes, the threshold). depth is the
// recursion depth, tracked as the MaxOpen analog (peak retained states).
//
// Each frame snapshots the expander's arena and rewinds it on return: the
// frame's entire subtree is dead by then (the incumbent is materialized out
// of the arena at discovery), so the engines keep their O(v·branching)
// retained-state footprint even though states come from slabs. The rewind
// is skipped when a duplicate table is in play — its entries must outlive
// the frame.
func (d *searcher) dfs(s *core.State, depth int) {
	if d.cut() {
		return
	}
	if depth > d.stats.MaxOpen {
		d.stats.MaxOpen = depth
	}
	mark := d.exp.Arena().Mark()

	// Collect children into a private slice: the expander emits into
	// d.children, which the recursion below would otherwise clobber.
	base := len(d.children)
	d.exp.Expand(s, d.visited, func(c *core.State) {
		d.children = append(d.children, c)
	})
	kids := d.children[base:]
	sort.Slice(kids, func(i, j int) bool { return core.Less(kids[i], kids[j]) })

	for i := range kids {
		c := kids[i]
		if c.Complete(d.m) {
			if c.F() < d.incumbentLen {
				d.incumbent, d.incumbentLen = d.m.ScheduleOf(c), c.F()
			}
			continue
		}
		// Re-check against the bound: the incumbent may have tightened
		// since this child was generated (the expander checked at
		// generation time only).
		if d.incumbentLen < inf && c.F() >= d.incumbentLen {
			d.stats.PrunedBound++
			continue
		}
		if c.F() > d.threshold {
			// IDA*: beyond this pass's contour; remember the closest f for
			// the next threshold.
			if c.F() < d.nextThresh {
				d.nextThresh = c.F()
			}
			continue
		}
		d.dfs(c, depth+1)
	}
	d.children = d.children[:base]
	if d.visited == nil {
		d.exp.Arena().Release(mark)
	}
}

// outcome reports the incumbent, if any; the search is proven unless the
// cutoff fired.
func (d *searcher) outcome() core.Outcome {
	d.publish()
	return core.Outcome{Best: d.incumbent, Proved: !d.stopped, Exact: true, Stats: d.stats}
}

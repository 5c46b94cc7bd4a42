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
// incumbent, seeded with the §3.2 list-scheduling upper bound U: a branch
// with f >= incumbent cannot improve on a complete schedule already in
// hand. If the search exhausts without ever beating U, the U schedule
// itself is returned, proven optimal.
//
// IDA* runs successive depth-first passes bounded by an f threshold,
// raising the threshold each pass to the smallest f that exceeded it. The
// pass in which the incumbent's length no longer exceeds the next threshold
// proves optimality. Thresholds strictly increase, so termination is
// guaranteed even though no visited table is kept at all.
package dfbb

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/procgraph"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

// Options configures the depth-first engines: the shared search settings
// plus the DFBB duplicate table. Epsilon is ignored (both engines are
// exact), and so is Tracer: each DFS frame rewinds its arena on return,
// which would corrupt a tracer that keeps the states it is handed.
type Options struct {
	core.Options
	// UseVisited enables the full duplicate-state table (DFBB only):
	// memory proportional to the states generated, bought back as time —
	// the inverse of the engines' usual trade. IDA* ignores it.
	UseVisited bool
}

const inf = int32(1) << 30

// Solve runs depth-first branch-and-bound and returns a provably optimal
// schedule (unless a cutoff fires, in which case the best incumbent is
// returned with Optimal=false).
func Solve(g *taskgraph.Graph, sys *procgraph.System, opt Options) (*core.Result, error) {
	m, err := core.NewModel(g, sys)
	if err != nil {
		return nil, err
	}
	return SolveModel(m, opt)
}

// SolveModel is Solve for a prebuilt model.
func SolveModel(m *core.Model, opt Options) (*core.Result, error) {
	started := time.Now()
	d, fallback, err := newSearcher(m, opt.Options)
	if err != nil {
		return nil, err
	}
	if opt.UseVisited {
		d.visited = core.NewVisited()
	}
	d.dfs(core.Root(), 1)
	if d.visited != nil {
		d.stats.VisitedSize = d.visited.Len()
	}
	return d.result(fallback, started), nil
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
	// initialized to the upper bound U (with no schedule) so the bound
	// prunes from the first expansion.
	incumbent    *schedule.Schedule
	incumbentLen int32

	// IDA* pass bookkeeping.
	threshold  int32
	nextThresh int32

	stop    func(expanded int64) bool
	stopped bool

	children []*core.State // reusable collection buffer
}

func newSearcher(m *core.Model, opt core.Options) (*searcher, *schedule.Schedule, error) {
	opt.Tracer = nil // see Options
	d := &searcher{
		m:            m,
		incumbentLen: inf,
		threshold:    inf, // DFBB: no pass bound
		nextThresh:   inf,
		stop:         opt.Stop,
	}
	ub, fallback, err := core.ResolveUpperBound(m, opt)
	if err != nil {
		return nil, nil, err
	}
	if ub > 0 {
		d.incumbentLen = ub
	}
	d.stats.UpperBound = ub
	d.stats.StaticLB = m.StaticLowerBound()
	d.exp = m.NewExpander(opt, &d.stats)
	// The incumbent bound subsumes the static U prune (it starts at U), so
	// the expander's separate UB check stays off and all pruning is counted
	// under PrunedBound.
	d.exp.Bound = func() int32 {
		if d.incumbentLen == inf {
			return 0
		}
		return d.incumbentLen
	}
	return d, fallback, nil
}

// cut reports whether the caller-supplied cutoff has fired (and latches it).
func (d *searcher) cut() bool {
	if d.stopped {
		return true
	}
	if d.stop != nil && d.stop(d.stats.Expanded) {
		d.stopped = true
		return true
	}
	return false
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

// result certifies the engine outcome: the incumbent when one was found.
// A search that exhausted without beating U proves the list-scheduling
// fallback optimal when the fallback realizes U, which it does unless the
// caller overrode U with a smaller bound.
func (d *searcher) result(fallback *schedule.Schedule, started time.Time) *core.Result {
	best := d.incumbent
	if best == nil && !d.stopped && fallback.Length <= d.stats.UpperBound {
		best = fallback
	}
	return core.Certify(best, fallback, !d.stopped, true, 0, d.stats, started)
}

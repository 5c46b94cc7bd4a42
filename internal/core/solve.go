package core

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/listsched"
	"repro/internal/procgraph"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

// Result is the outcome of a solve.
type Result struct {
	Schedule *schedule.Schedule
	Length   int32
	// Optimal is true when the engine proved Length optimal. Aε* runs set it
	// when the returned schedule also meets the admissible lower bound it
	// terminated against.
	Optimal bool
	// BoundFactor is the proven guarantee: Length <= BoundFactor * optimal.
	// 1 for completed exact searches, 1+ε for completed Aε* searches, and 0
	// when a cutoff fired before any guarantee was established.
	BoundFactor float64
	Stats       Stats
}

// Solve runs the serial A* scheduling algorithm of §3.1–3.2 (or Aε* of §3.4
// when opt.Epsilon > 0) and returns an optimal (resp. ε-bounded) schedule.
func Solve(g *taskgraph.Graph, sys *procgraph.System, opt Options) (*Result, error) {
	m, err := NewModel(g, sys)
	if err != nil {
		return nil, err
	}
	return SolveModel(m, opt)
}

// SolveModel is Solve for a prebuilt Model.
func SolveModel(m *Model, opt Options) (*Result, error) {
	started := time.Now()
	var stats Stats
	stats.StaticLB = m.staticLB

	ub, fallback, err := ResolveUpperBound(m, opt)
	if err != nil {
		return nil, err
	}
	stats.UpperBound = ub

	arena := takeArena()
	exp := m.newExpander(opt, &stats, arena)
	exp.UB = ub

	var goalBest *State
	exp.Bound = func() int32 {
		if goalBest == nil {
			return 0
		}
		return goalBest.f
	}
	open := NewQueue(opt)
	visited := NewVisited()
	defer releaseBuffers(open, visited, arena)
	emit := func(c *State) {
		if c.Complete(m) {
			if goalBest == nil || c.f < goalBest.f {
				goalBest = c
			}
			return
		}
		open.Push(c)
	}
	meter := opt.Progress.Meter()

	exp.Expand(Root(), visited, emit)
	proved := false
	var fmin int32
	for {
		if open.Len() > stats.MaxOpen {
			stats.MaxOpen = open.Len()
		}
		var ok bool
		fmin, ok = open.MinF()
		if !ok {
			proved = true // search space exhausted: incumbent is optimal
			break
		}
		if goalBest != nil && float64(goalBest.f) <= (1+opt.Epsilon)*float64(fmin) {
			proved = true
			break
		}
		if meter != nil {
			// fmin lower-bounds the optimum under A* and Aε* alike.
			meter.Publish(&stats, open.Len(), cmp.Or(exp.Bound(), ub), fmin)
		}
		if opt.Stop != nil && opt.Stop(stats.Expanded) {
			break
		}
		exp.Expand(open.Pop(), visited, emit)
	}
	if meter != nil {
		meter.Publish(&stats, open.Len(), cmp.Or(exp.Bound(), ub), fmin)
	}
	stats.VisitedSize = visited.Len()

	var best *schedule.Schedule
	exact := false
	if goalBest != nil {
		best = m.ScheduleOf(goalBest)
		// An Aε* result is still exact when it meets the final admissible
		// lower bound (or OPEN is exhausted).
		fmin, ok := open.MinF()
		exact = !ok || goalBest.f <= fmin
	}
	return Certify(best, fallback, proved, exact, opt.Epsilon, stats, started), nil
}

// Certify turns the end of a search into its Result; every engine builds
// its Result here, so Optimal ⇔ BoundFactor == 1 holds in one place.
//
// best is the best complete schedule the search found, or nil. Without one
// the list-scheduling fallback is returned with no guarantee, so a cut-off
// search still yields a feasible schedule. proved reports that the search
// ended with a certificate rather than a cutoff; exact that the certificate
// is optimality rather than only the (1+eps) bound the search ran under. A
// proven-optimal result reports BoundFactor 1, never the looser 1+eps.
func Certify(best, fallback *schedule.Schedule, proved, exact bool, eps float64, stats Stats, started time.Time) *Result {
	res := &Result{Schedule: best, Stats: stats}
	if best == nil {
		res.Schedule, proved = fallback, false
	}
	res.Length = res.Schedule.Length
	if proved {
		res.Optimal = exact || eps == 0
		res.BoundFactor = 1 + eps
		if res.Optimal {
			res.BoundFactor = 1
		}
	}
	res.Stats.WallTime = time.Since(started)
	return res
}

// ResolveUpperBound computes the §3.2 upper bound U via the linear-time list
// heuristic (unless overridden or disabled) and returns the heuristic
// schedule as a fallback for cut-off searches.
func ResolveUpperBound(m *Model, opt Options) (int32, *schedule.Schedule, error) {
	ls, err := listsched.Schedule(m.G, m.Sys, listsched.Options{Priority: listsched.PriorityBLevel})
	if err != nil {
		return 0, nil, fmt.Errorf("core: upper-bound heuristic failed: %w", err)
	}
	ub := ls.Length
	if opt.UpperBound > 0 {
		ub = opt.UpperBound
	}
	if opt.Disable&DisableUpperBound != 0 {
		ub = 0
	}
	return ub, ls, nil
}

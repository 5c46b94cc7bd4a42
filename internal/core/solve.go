package core

import (
	"cmp"

	"repro/internal/procgraph"
	"repro/internal/taskgraph"
)

// Solve runs the serial A* scheduling algorithm of §3.1–3.2 (or Aε* of §3.4
// when opt.Epsilon > 0) through the engine boundary and returns an optimal
// (resp. ε-bounded) schedule.
func Solve(g *taskgraph.Graph, sys *procgraph.System, opt Options) (*Result, error) {
	m, err := NewModel(g, sys)
	if err != nil {
		return nil, err
	}
	return Run(m, opt, func(s Start) (Outcome, error) { return Search(m, opt, s), nil })
}

// Search is the serial A*/Aε* search under the upper bound s.UB.
func Search(m *Model, opt Options, s Start) Outcome {
	stats := Stats{StaticLB: m.staticLB, UpperBound: s.UB}
	arena := takeArena()
	exp := m.newExpander(opt, &stats, arena)
	exp.UB = s.UB

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
			meter.Publish(&stats, open.Len(), cmp.Or(exp.Bound(), s.UB), fmin)
		}
		if opt.Stop != nil && opt.Stop(stats.Expanded) {
			break
		}
		exp.Expand(open.Pop(), visited, emit)
	}
	if meter != nil {
		meter.Publish(&stats, open.Len(), cmp.Or(exp.Bound(), s.UB), fmin)
	}
	stats.VisitedSize = visited.Len()

	out := Outcome{Proved: proved, Stats: stats}
	if goalBest != nil {
		out.Best = m.ScheduleOf(goalBest)
		// An Aε* result is still exact when it meets the final admissible
		// lower bound (or OPEN is exhausted).
		fmin, ok := open.MinF()
		out.Exact = !ok || goalBest.f <= fmin
	}
	return out
}

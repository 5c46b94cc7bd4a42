package core

import (
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

	exp := m.NewExpander(opt, &stats)
	exp.UB = ub

	boundTracer, _ := opt.Tracer.(BoundTracer)
	if boundTracer != nil && ub > 0 {
		boundTracer.Incumbent(ub)
	}

	var goalBest *State
	exp.Bound = func() int32 {
		if goalBest == nil {
			return 0
		}
		return goalBest.f
	}
	open := NewQueue(opt)
	visited := NewVisited()
	defer releaseBuffers(open, visited)
	emit := func(c *State) {
		if c.Complete(m) {
			if goalBest == nil || c.f < goalBest.f {
				goalBest = c
				if boundTracer != nil {
					boundTracer.Incumbent(c.f)
				}
			}
			return
		}
		open.Push(c)
		if boundTracer != nil {
			boundTracer.OpenDelta(1)
		}
	}

	exp.Expand(Root(), visited, emit)
	proved := false
	cutOff := false
	for {
		if open.Len() > stats.MaxOpen {
			stats.MaxOpen = open.Len()
		}
		fmin, ok := open.MinF()
		if !ok {
			proved = true // search space exhausted: incumbent is optimal
			break
		}
		if goalBest != nil && float64(goalBest.f) <= (1+opt.Epsilon)*float64(fmin) {
			proved = true
			break
		}
		if opt.Stop != nil && opt.Stop(stats.Expanded) {
			cutOff = true
			break
		}
		s := open.Pop()
		if boundTracer != nil {
			boundTracer.OpenDelta(-1)
			boundTracer.Frontier(s.f)
		}
		exp.Expand(s, visited, emit)
	}
	stats.VisitedSize = visited.Len()

	res := &Result{Stats: stats}
	switch {
	case goalBest != nil:
		res.Schedule = m.ScheduleOf(goalBest)
		res.Length = goalBest.f
		if proved && !cutOff {
			// An Aε* result is still provably optimal when it meets the
			// final admissible lower bound exactly (or exhausted OPEN); a
			// proven-optimal result reports the exact guarantee, not the
			// looser ε bound it happened to search under.
			fmin, ok := open.MinF()
			res.Optimal = opt.Epsilon == 0 || !ok || goalBest.f <= fmin
			if res.Optimal {
				res.BoundFactor = 1
			} else {
				res.BoundFactor = 1 + opt.Epsilon
			}
		}
	default:
		// Cut off before any complete schedule was generated; fall back to
		// the list-scheduling heuristic so the caller always gets a feasible
		// schedule.
		res.Schedule = fallback
		res.Length = fallback.Length
	}
	res.Stats.WallTime = time.Since(started)
	return res, nil
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

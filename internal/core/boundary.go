package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/listsched"
	"repro/internal/schedule"
)

// The engine boundary. Every engine — the registry's and Solve — runs its
// search through Run, which owns everything around it: the wall clock, the
// §3.2 upper bound U and the schedule held in reserve, the Result and
// its certificate, and the feasibility check. An engine only searches: it
// takes the Start that Run settled and returns an Outcome.

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

// Start is what Run settles before a search runs.
type Start struct {
	// UB is the §3.2 upper bound U, 0 when disabled: the search may discard
	// any state with f > UB.
	UB int32
	// Fallback is the length of the schedule Run returns when the search
	// finds none or only a longer one, the one that realizes U unless a
	// caller overrides U. A search that looks only for schedules shorter
	// than UB loses nothing when Fallback <= UB (see Run).
	Fallback int32
}

// Outcome is what a search hands back to Run.
type Outcome struct {
	// Best is the best complete schedule the search found, or nil.
	Best *schedule.Schedule
	// Proved reports that the search ended with a certificate rather than
	// a cutoff; Exact that the certificate is optimality rather than only
	// the (1+ε) bound the search ran under.
	Proved, Exact bool
	Stats         Stats
}

// ErrInvalidResult marks a result that is not a feasible schedule of the
// length it reports: an engine bug, never an input the caller can fix.
var ErrInvalidResult = errors.New("engine: invalid result")

// Run is the engine boundary: it computes U (ResolveUpperBound), runs
// search under it, turns the Outcome into the Result, stamps its wall time
// and checks that the Result is a feasible schedule of the length it
// reports.
//
// The schedule ResolveUpperBound returned is held in reserve: Run returns
// it when the search found no schedule or only a longer one, so a cut-off
// search still yields a feasible schedule and never one longer than the
// reserve. That replacement only happens for a search that does not prune
// against the reserve's length: bnb, which takes no U, a search with U
// disabled, or one under a caller's U above it. A shorter reserve keeps
// the search's certificate, since it is no longer than the schedule the
// certificate was for. Without a schedule from the search, the reserve
// comes with no guarantee, except when the search was proven and the
// reserve is no longer than U: the search exhausted without finding a
// schedule shorter than U, so it is optimal. Only a search that looks for
// schedules shorter than U can end that way (dfbb and ida); the A*-family
// engines keep states with f = U, so they always find one when it exists.
//
// A proven-optimal result reports BoundFactor 1, never the looser 1+ε, so
// Optimal ⇔ BoundFactor == 1 holds for every engine.
func Run(m *Model, opt Options, search func(Start) (Outcome, error)) (*Result, error) {
	started := time.Now()
	ub, fallback, err := ResolveUpperBound(m, opt)
	if err != nil {
		return nil, err
	}
	out, err := search(Start{UB: ub, Fallback: fallback.Length})
	if err != nil {
		return nil, err
	}
	res := &Result{Schedule: out.Best, Stats: out.Stats}
	if out.Best == nil {
		out.Proved = out.Proved && fallback.Length <= ub
	}
	if out.Best == nil || fallback.Length < out.Best.Length {
		res.Schedule = fallback
	}
	res.Length = res.Schedule.Length
	if out.Proved {
		res.Optimal = out.Exact || opt.Epsilon == 0
		res.BoundFactor = 1 + opt.Epsilon
		if res.Optimal {
			res.BoundFactor = 1
		}
	}
	res.Stats.WallTime = time.Since(started)
	if err := res.Schedule.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidResult, err)
	}
	var makespan int32
	for _, p := range res.Schedule.Place {
		makespan = max(makespan, p.Finish)
	}
	if makespan != res.Length {
		return nil, fmt.Errorf("%w: schedule ends at %d, result reports %d", ErrInvalidResult, makespan, res.Length)
	}
	return res, nil
}

// ResolveUpperBound computes the §3.2 upper bound U, the length of
// listsched.UpperBound's schedule (the shorter of the b-level list schedule
// and the one-PE schedule), unless Options.UpperBound overrides it or
// DisableUpperBound switches it off. It returns that schedule too, which
// Run holds in reserve for a search that finds none or only a longer one.
// Pruning against U stays exact because U is the length of a feasible
// schedule.
func ResolveUpperBound(m *Model, opt Options) (int32, *schedule.Schedule, error) {
	ls, err := listsched.UpperBound(m.G, m.Sys)
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

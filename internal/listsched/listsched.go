// Package listsched implements the list-scheduling heuristic the paper uses
// to obtain the upper-bound solution cost U for pruning (§3.2, ref. [14]
// "FAST"): (1) build a task list ordered by decreasing priority, (2)
// schedule each ready task to the processor allowing its earliest start
// time. UpperBound, the one definition of U, takes the shorter of that
// schedule and the one-PE schedule. The heuristic also serves as the
// polynomial-time baseline in the examples, with the priority attributes
// discussed in §3.2 (b-level, b-level + t-level, static level) and an
// optional insertion variant that fills idle gaps.
package listsched

import (
	"fmt"

	"repro/internal/heapx"
	"repro/internal/procgraph"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

// Priority selects the node attribute that orders the task list.
type Priority int

const (
	// PriorityBLevel orders by decreasing b-level (HLFET-style).
	PriorityBLevel Priority = iota
	// PriorityBLPlusTL orders by decreasing b-level + t-level, the attribute
	// the paper's A* uses for ready-node ordering.
	PriorityBLPlusTL
	// PriorityStaticLevel orders by decreasing static level.
	PriorityStaticLevel
)

func (p Priority) String() string {
	switch p {
	case PriorityBLevel:
		return "b-level"
	case PriorityBLPlusTL:
		return "bl+tl"
	case PriorityStaticLevel:
		return "static-level"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// Options customizes the heuristic.
type Options struct {
	Priority  Priority
	Insertion bool // fill idle gaps instead of appending after the last task
}

// Schedule runs the heuristic and returns a feasible schedule.
func Schedule(g *taskgraph.Graph, sys *procgraph.System, opt Options) (*schedule.Schedule, error) {
	v := g.NumNodes()
	p := sys.NumProcs()
	if v == 0 || p == 0 {
		return nil, fmt.Errorf("listsched: empty graph or system")
	}
	rank := ranks(g, opt.Priority)

	type readyNode struct {
		node int32
		rank int64
	}
	ready := heapx.New[readyNode](func(a, b readyNode) bool {
		if a.rank != b.rank {
			return a.rank > b.rank // max-rank first
		}
		return a.node < b.node
	})
	predsLeft := make([]int32, v)
	for n := 0; n < v; n++ {
		predsLeft[n] = int32(g.InDegree(int32(n)))
		if predsLeft[n] == 0 {
			ready.Push(readyNode{node: int32(n), rank: rank[n]})
		}
	}

	place := make([]schedule.Placement, v)
	for i := range place {
		place[i].Proc = -1
	}
	rt := make([]int32, p)                  // non-insertion: finish of last task per PE
	gaps := make([][]schedule.Placement, p) // insertion: occupied intervals per PE, sorted

	for ready.Len() > 0 {
		n := ready.Pop().node
		bestProc, bestStart := -1, int32(0)
		var bestFinish int32
		for pe := 0; pe < p; pe++ {
			dataReady := int32(0)
			for _, a := range g.Pred(n) {
				t := place[a.Node].Finish + sys.CommCost(a.Cost, int(place[a.Node].Proc), pe)
				if t > dataReady {
					dataReady = t
				}
			}
			exec := sys.ExecCost(g.Weight(n), pe)
			var st int32
			if opt.Insertion {
				st = earliestGap(gaps[pe], dataReady, exec)
			} else {
				st = max32(rt[pe], dataReady)
			}
			ft := st + exec
			if bestProc < 0 || ft < bestFinish || (ft == bestFinish && st < bestStart) {
				bestProc, bestStart, bestFinish = pe, st, ft
			}
		}
		place[n] = schedule.Placement{Proc: int32(bestProc), Start: bestStart, Finish: bestFinish}
		if opt.Insertion {
			gaps[bestProc] = insertInterval(gaps[bestProc], place[n])
		}
		if bestFinish > rt[bestProc] {
			rt[bestProc] = bestFinish
		}
		for _, a := range g.Succ(n) {
			predsLeft[a.Node]--
			if predsLeft[a.Node] == 0 {
				ready.Push(readyNode{node: a.Node, rank: rank[a.Node]})
			}
		}
	}
	s := schedule.New(g, sys, place)
	return s, nil
}

// UpperBound returns the schedule whose length is the U of §3.2: the
// shorter of the b-level list schedule (the paper's heuristic) and the
// one-PE schedule, every task in topological order back to back on the PE
// with the smallest total execution cost. At high CCR the list schedule
// pays for messages the one-PE schedule never sends, and the latter is the
// shorter on most instances. A tie keeps the list schedule. The one-PE
// length is summed first and its placements are written over the list
// schedule's only when it wins.
func UpperBound(g *taskgraph.Graph, sys *procgraph.System) (*schedule.Schedule, error) {
	pe, onePE := cheapestPE(g, sys)
	s, err := Schedule(g, sys, Options{Priority: PriorityBLevel})
	if err != nil || onePE >= int64(s.Length) {
		return s, err
	}
	var t int32
	for _, n := range g.TopoOrder() {
		exec := sys.ExecCost(g.Weight(n), pe)
		s.Place[n] = schedule.Placement{Proc: int32(pe), Start: t, Finish: t + exec}
		t += exec
	}
	s.Length = t
	return s, nil
}

// cheapestPE returns the PE on which the tasks' execution costs sum least,
// and that sum. ExecCost, ⌈w·speed⌉ and at least 1, never falls as the
// speed multiplier rises, so that is the PE of the smallest multiplier, the
// lowest-numbered on a tie: PE 0 on a homogeneous system.
func cheapestPE(g *taskgraph.Graph, sys *procgraph.System) (int, int64) {
	pe := 0
	for p := 1; p < sys.NumProcs(); p++ {
		if sys.Speed(p) < sys.Speed(pe) {
			pe = p
		}
	}
	var sum int64
	for n := range g.NumNodes() {
		sum += int64(sys.ExecCost(g.Weight(int32(n)), pe))
	}
	return pe, sum
}

func ranks(g *taskgraph.Graph, p Priority) []int64 {
	v := g.NumNodes()
	out := make([]int64, v)
	switch p {
	case PriorityBLevel:
		bl := g.BLevels()
		for n := 0; n < v; n++ {
			out[n] = int64(bl[n])
		}
	case PriorityBLPlusTL:
		bl := g.BLevels()
		tl := g.TLevels()
		for n := 0; n < v; n++ {
			out[n] = int64(bl[n]) + int64(tl[n])
		}
	case PriorityStaticLevel:
		sl := g.StaticLevels()
		for n := 0; n < v; n++ {
			out[n] = int64(sl[n])
		}
	}
	return out
}

// earliestGap finds the earliest start >= dataReady such that [start,
// start+exec) fits among the occupied intervals (kept sorted by start).
func earliestGap(busy []schedule.Placement, dataReady, exec int32) int32 {
	st := dataReady
	for _, iv := range busy {
		if st+exec <= iv.Start {
			return st
		}
		if iv.Finish > st {
			st = iv.Finish
		}
	}
	return st
}

func insertInterval(busy []schedule.Placement, pl schedule.Placement) []schedule.Placement {
	i := 0
	for i < len(busy) && busy[i].Start < pl.Start {
		i++
	}
	busy = append(busy, schedule.Placement{})
	copy(busy[i+1:], busy[i:])
	busy[i] = pl
	return busy
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

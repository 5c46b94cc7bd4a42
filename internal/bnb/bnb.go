// Package bnb implements the comparison baseline of the paper's evaluation:
// Chen & Yu's branch-and-bound-with-underestimates algorithm for the task
// assignment problem with precedence constraints (Proc. ICDCS 1990; paper
// §2, §4.2).
//
// The algorithm explores the same (ready node → processor) state space as
// the A* engine, best-first by an underestimated completion cost, but its
// cost function is deliberately expensive: for a new state created by
// scheduling node n, it extends all execution paths from n to the exit
// nodes and matches them onto the processor graph for the minimum
// communication, taking the finish time of the last exit node as the bound.
// We realize that path-extension/graph-matching computation as a memoized
// dynamic program over n's descendants and the processor set,
//
//	est(u, pe) = exec(u, pe) + max_{c ∈ succ(u)} min_{pe'} ( comm(c, pe, pe') + est(c, pe') )
//
// evaluated afresh for every expansion (the per-state cost profile the paper
// contrasts with its O(1)-amortized h — §4.2 attributes the A* advantage
// precisely to the cheaper cost-function evaluation). No Kwok-style §3.2
// prunings are applied, matching the paper's description of the baseline;
// the engine does keep a CLOSED duplicate table and the standard B&B
// incumbent bound.
package bnb

import (
	"time"

	"repro/internal/core"
	"repro/internal/heapx"
	"repro/internal/procgraph"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

type state struct {
	parent *state
	sig    uint64
	mask   core.Mask
	g      int32 // partial schedule length
	f      int32 // underestimated completion cost
	node   int32
	proc   int32
	start  int32
	finish int32
	depth  int32
}

// Solve runs the baseline to optimality (unless cut off).
func Solve(g *taskgraph.Graph, sys *procgraph.System, opt core.Options) (*core.Result, error) {
	m, err := core.NewModel(g, sys)
	if err != nil {
		return nil, err
	}
	return SolveModel(m, opt)
}

// SolveModel is Solve for a prebuilt model (the engine reads only the
// model's graph and system; its cost function is deliberately its own).
// Of opt it reads only Stop: the baseline applies none of the §3.2
// prunings, keeps its own bound, and runs exact. A search cut off before
// its first complete schedule returns the list-scheduling fallback.
func SolveModel(m *core.Model, opt core.Options) (*core.Result, error) {
	g, sys := m.G, m.Sys
	started := time.Now()
	_, fallback, err := core.ResolveUpperBound(m, opt)
	if err != nil {
		return nil, err
	}
	e := &engine{
		g: g, sys: sys,
		v: g.NumNodes(), p: sys.NumProcs(),
		procOf:   make([]int32, g.NumNodes()),
		finishOf: make([]int32, g.NumNodes()),
		rt:       make([]int32, sys.NumProcs()),
		est:      make([][]int32, g.NumNodes()),
		estSet:   make([]bool, g.NumNodes()),
		visited:  map[uint64][]*state{},
	}
	for n := range e.est {
		e.est[n] = make([]int32, e.p)
	}

	open := heapx.NewWithCapacity(func(a, b *state) bool {
		if a.f != b.f {
			return a.f < b.f
		}
		if a.depth != b.depth {
			return a.depth > b.depth
		}
		return a.sig < b.sig
	}, 1024)

	var goalBest *state
	emit := func(c *state) {
		if int(c.depth) == e.v {
			if goalBest == nil || c.f < goalBest.f {
				goalBest = c
			}
			return
		}
		open.Push(c)
	}

	root := &state{node: -1, proc: -1}
	e.expand(root, goalBest, emit)
	proved := true
	for open.Len() > 0 {
		if open.Len() > e.stats.MaxOpen {
			e.stats.MaxOpen = open.Len()
		}
		s := open.Peek()
		if goalBest != nil && s.f >= goalBest.f {
			break
		}
		if opt.Stop != nil && opt.Stop(e.stats.Expanded) {
			proved = false
			break
		}
		open.Pop()
		e.expand(s, goalBest, emit)
	}

	var best *schedule.Schedule
	if goalBest != nil {
		best = e.scheduleOf(goalBest)
	}
	return core.Certify(best, fallback, proved, true, 0, e.stats, started), nil
}

type engine struct {
	g        *taskgraph.Graph
	sys      *procgraph.System
	v, p     int
	procOf   []int32
	finishOf []int32
	rt       []int32
	est      [][]int32 // per-expansion DP memo
	estSet   []bool
	visited  map[uint64][]*state
	stats    core.Stats
}

func (e *engine) load(s *state) {
	for i := range e.procOf {
		e.procOf[i] = -1
	}
	for i := range e.rt {
		e.rt[i] = 0
	}
	for cur := s; cur != nil && cur.node >= 0; cur = cur.parent {
		e.procOf[cur.node] = cur.proc
		e.finishOf[cur.node] = cur.finish
		if cur.finish > e.rt[cur.proc] {
			e.rt[cur.proc] = cur.finish
		}
	}
}

func (e *engine) expand(s *state, goalBest *state, emit func(*state)) {
	e.load(s)
	e.stats.Expanded++
	// Chen & Yu recompute the path-matching bound per state; reset the memo.
	for i := range e.estSet {
		e.estSet[i] = false
	}
	for n := int32(0); int(n) < e.v; n++ {
		if s.mask.Has(n) {
			continue
		}
		ready := true
		for _, a := range e.g.Pred(n) {
			if !s.mask.Has(a.Node) {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		e.fillEst(n)
		for pe := int32(0); int(pe) < e.p; pe++ {
			st := e.rt[pe]
			for _, a := range e.g.Pred(n) {
				t := e.finishOf[a.Node] + e.sys.CommCost(a.Cost, int(e.procOf[a.Node]), int(pe))
				if t > st {
					st = t
				}
			}
			ft := st + e.sys.ExecCost(e.g.Weight(n), int(pe))
			g := s.g
			if ft > g {
				g = ft
			}
			f := st + e.est[n][pe] // underestimated finish of the last exit below n
			if g > f {
				f = g
			}
			if s.f > f {
				f = s.f // keep f monotone along the path: bounds inherited from ancestors stay valid
			}
			if goalBest != nil && f >= goalBest.f {
				e.stats.PrunedBound++
				continue
			}
			child := &state{
				parent: s,
				sig:    s.sig ^ sigMix(n, pe, st),
				mask:   s.mask.With(n),
				g:      g,
				f:      f,
				node:   n,
				proc:   pe,
				start:  st,
				finish: ft,
				depth:  s.depth + 1,
			}
			e.stats.Generated++
			if !e.addVisited(child) {
				e.stats.Duplicates++
				continue
			}
			emit(child)
		}
	}
}

// fillEst runs the path-extension/processor-matching DP from node n over
// all of its descendants, for every processor.
func (e *engine) fillEst(n int32) {
	if e.estSet[n] {
		return
	}
	// Depth-first over descendants; the DAG guarantees termination.
	for _, a := range e.g.Succ(n) {
		e.fillEst(a.Node)
	}
	for pe := 0; pe < e.p; pe++ {
		var worst int32
		for _, a := range e.g.Succ(n) {
			best := int32(1<<31 - 1)
			for pe2 := 0; pe2 < e.p; pe2++ {
				c := e.sys.CommCost(a.Cost, pe, pe2) + e.est[a.Node][pe2]
				if c < best {
					best = c
				}
			}
			if best > worst {
				worst = best
			}
		}
		e.est[n][pe] = e.sys.ExecCost(e.g.Weight(n), pe) + worst
	}
	e.estSet[n] = true
}

func (e *engine) addVisited(c *state) bool {
	bucket := e.visited[c.sig]
	for _, t := range bucket {
		if t.mask == c.mask && t.g == c.g && sameAssignment(c, t) {
			return false
		}
	}
	e.visited[c.sig] = append(bucket, c)
	return true
}

func sameAssignment(a, b *state) bool {
	if a.mask != b.mask || a.depth != b.depth {
		return false
	}
	for sa := a; sa != nil && sa.node >= 0; sa = sa.parent {
		found := false
		for sb := b; sb != nil && sb.node >= 0; sb = sb.parent {
			if sb.node == sa.node {
				found = sb.proc == sa.proc && sb.start == sa.start
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func sigMix(node, proc, start int32) uint64 {
	x := uint64(uint32(node))*0x9E3779B97F4A7C15 ^
		uint64(uint32(proc))*0xC2B2AE3D27D4EB4F ^
		uint64(uint32(start))*0x165667B19E3779F9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func (e *engine) scheduleOf(s *state) *schedule.Schedule {
	place := make([]schedule.Placement, e.v)
	for cur := s; cur != nil && cur.node >= 0; cur = cur.parent {
		place[cur.node] = schedule.Placement{Proc: cur.proc, Start: cur.start, Finish: cur.finish}
	}
	return schedule.New(e.g, e.sys, place)
}

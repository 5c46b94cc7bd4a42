// Package core implements the paper's primary contribution: the serial A*
// scheduling algorithm of §3.1 with the computationally efficient admissible
// cost function f(s) = g(s) + h(s), the four state-space pruning techniques
// of §3.2 (processor isomorphism, priority assignment, node equivalence,
// upper-bound solution cost), and the approximate Aε* variant of §3.4
// (FOCAL-list search with a bounded (1+ε) deviation from optimal).
//
// The building blocks (Model, State, Expander, Visited) are exported so the
// parallel engine in internal/parallel can run the identical expansion logic
// on every physical processing element (PPE).
//
// Reading order: Model (NewModel precomputes every per-instance table the
// search needs — execution costs, admissible static levels, equivalence and
// interchangeability classes), then State and Expander (expand.go, the §3.1
// operator with the §3.2 prunings), then Search (solve.go, the serial
// A*/Aε* loop that every other engine package mirrors) and Run
// (boundary.go, the engine boundary every search runs through). Model is
// immutable after construction and shared freely across engines and
// goroutines — the property internal/solverpool's memoization and the
// network daemon's repeated-instance path rely on.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/procgraph"
	"repro/internal/taskgraph"
)

// Model holds everything about a (graph, system) instance that the search
// needs, precomputed once: per-PE execution costs, the static levels that
// define h, the b-level + t-level priority order, node-equivalence classes
// (Definition 3), and the processor-interchangeability classes used by the
// isomorphism pruning.
type Model struct {
	G   *taskgraph.Graph
	Sys *procgraph.System
	V   int
	P   int

	exec      [][]int32 // [node][pe] execution cost
	wMin      []int32   // per node: minimum exec cost over PEs
	totalWMin int64     // sum of wMin over all nodes (HLoad workload bound)
	slMin     []int32   // static levels with per-node MINIMUM exec cost (admissible h)
	maxSlSucc []int32   // per node: max slMin over its successors; 0 for exits
	prioOrder []int32   // node ids by decreasing b-level + t-level (mean costs)
	eqRep     []int32   // node-equivalence class representative (lowest id)
	eqPrev    []int32   // next-lower node id in the same equivalence class, -1 if lowest
	procRep   []int32   // PE interchangeability class representative
	staticLB  int32     // graph-level lower bound: max over n of tlMin(n)+slMin(n)

	// Fixed-task-order (FTO) tables. A ready set collapses to a single forced
	// branching order when every ready node has at most one parent and one
	// child, all present children coincide, and the nodes admit an order with
	// non-decreasing data-ready times and non-increasing out-edge costs
	// (arXiv 2405.15371). The per-node structure is static; only the
	// data-ready times depend on the partial schedule.
	ftoOK         []bool  // in-degree <= 1 && out-degree <= 1
	ftoParent     []int32 // the sole parent, -1 if entry
	ftoParentCost []int32 // comm cost of the sole in-edge
	ftoChild      []int32 // the sole child, -1 if exit
	ftoOutCost    []int32 // comm cost of the sole out-edge (0 if exit)
	ftoEligible   bool    // system is the classic model the FTO proof assumes
}

// MaxCost is the largest worst-case schedule length the engines accept;
// see CheckInstance.
const MaxCost = 1<<29 - 1

// ErrCostRange marks an instance whose costs the search's int32 arithmetic
// cannot represent.
var ErrCostRange = errors.New("instance costs exceed the engines' int32 range")

// CheckInstance reports whether the engines can search g on sys: a
// non-empty graph of at most MaxNodes tasks, a system with processors, and
// a worst-case schedule length W of at most MaxCost. W is the sum over
// tasks of the largest execution cost on any PE plus the sum over edges of
// the largest communication cost between any two PEs. The check runs on
// the system's costs, not the graph's weights, because PE speeds and hop
// distances scale them.
//
// Why W bounds the arithmetic: every engine starts a task at the ready
// time of its PE or at a parent's finish plus that edge's communication
// cost. Following those links back from any task visits each task and
// each edge at most once, so every start, finish and g is at most W. Each
// h term is at most W more: a static level is one path's costs, the
// critical-path bound adds one to an earliest start, and the load bound
// averages the PE timelines and the remaining work. So every f is at most
// 2W + 1 < 1<<30, which stays below the engines' "no bound" sentinels
// (1<<30 in the depth-first engines, MaxInt32 elsewhere) and leaves int32
// a factor of two to spare.
func CheckInstance(g *taskgraph.Graph, sys *procgraph.System) error {
	v, p := g.NumNodes(), sys.NumProcs()
	if v == 0 {
		return fmt.Errorf("core: empty task graph")
	}
	if v > MaxNodes {
		return fmt.Errorf("core: %d nodes exceeds the engine limit of %d (the %d-word scheduled-set mask)", v, MaxNodes, MaskWords)
	}
	if p == 0 {
		return fmt.Errorf("core: system has no processors")
	}
	// Float64 holds every partial sum exactly: at most MaxNodes terms below
	// 2^33 each.
	speed := 0.0
	for pe := 0; pe < p; pe++ {
		speed = max(speed, sys.Speed(pe))
	}
	hops := float64(sys.Diameter())
	if sys.Link() == procgraph.LinkUniform {
		hops = 1
	}
	var worst float64
	for n := int32(0); int(n) < v; n++ {
		worst += max(1, math.Ceil(float64(g.Weight(n))*speed))
		for _, a := range g.Succ(n) {
			worst += float64(a.Cost) * hops
		}
	}
	if worst > MaxCost {
		return fmt.Errorf("core: %w: the worst-case schedule length %.0f exceeds %d", ErrCostRange, worst, MaxCost)
	}
	return nil
}

// NewModel validates the instance (CheckInstance) and precomputes the
// search tables.
func NewModel(g *taskgraph.Graph, sys *procgraph.System) (*Model, error) {
	if err := CheckInstance(g, sys); err != nil {
		return nil, err
	}
	v, p := g.NumNodes(), sys.NumProcs()
	m := &Model{G: g, Sys: sys, V: v, P: p}

	m.exec = make([][]int32, v)
	wMin := make([]int32, v)
	wMean := make([]int32, v)
	for n := 0; n < v; n++ {
		m.exec[n] = make([]int32, p)
		var sum int64
		mn := int32(1<<31 - 1)
		for pe := 0; pe < p; pe++ {
			c := sys.ExecCost(g.Weight(int32(n)), pe)
			m.exec[n][pe] = c
			sum += int64(c)
			if c < mn {
				mn = c
			}
		}
		wMin[n] = mn
		m.totalWMin += int64(mn)
		wMean[n] = int32(sum / int64(p))
		if wMean[n] < 1 {
			wMean[n] = 1
		}
	}
	m.wMin = wMin

	m.slMin = g.StaticLevelsWith(wMin)
	m.maxSlSucc = make([]int32, v)
	for n := 0; n < v; n++ {
		var best int32
		for _, a := range g.Succ(int32(n)) {
			if m.slMin[a.Node] > best {
				best = m.slMin[a.Node]
			}
		}
		m.maxSlSucc[n] = best
	}

	bl := g.BLevelsWith(wMean)
	tl := g.TLevelsWith(wMean)
	m.prioOrder = make([]int32, v)
	for n := range m.prioOrder {
		m.prioOrder[n] = int32(n)
	}
	sort.SliceStable(m.prioOrder, func(i, j int) bool {
		a, b := m.prioOrder[i], m.prioOrder[j]
		pa := int64(bl[a]) + int64(tl[a])
		pb := int64(bl[b]) + int64(tl[b])
		if pa != pb {
			return pa > pb
		}
		return a < b
	})

	m.eqRep = equivalenceClasses(g)
	// Link each equivalence class's members in increasing node-id order: the
	// equivalent-task pruning only branches on a node whose next-lower class
	// member is already scheduled, fixing one canonical scheduling order per
	// class across the whole search tree.
	m.eqPrev = make([]int32, v)
	lastOf := make([]int32, v)
	for i := range lastOf {
		lastOf[i] = -1
	}
	for n := 0; n < v; n++ {
		rep := m.eqRep[n]
		m.eqPrev[n] = lastOf[rep]
		lastOf[rep] = int32(n)
	}
	m.procRep = sys.Classes()

	m.ftoOK = make([]bool, v)
	m.ftoParent = make([]int32, v)
	m.ftoParentCost = make([]int32, v)
	m.ftoChild = make([]int32, v)
	m.ftoOutCost = make([]int32, v)
	for n := 0; n < v; n++ {
		preds, succs := g.Pred(int32(n)), g.Succ(int32(n))
		m.ftoOK[n] = len(preds) <= 1 && len(succs) <= 1
		m.ftoParent[n], m.ftoChild[n] = -1, -1
		if len(preds) == 1 {
			m.ftoParent[n], m.ftoParentCost[n] = preds[0].Node, preds[0].Cost
		}
		if len(succs) == 1 {
			m.ftoChild[n], m.ftoOutCost[n] = succs[0].Node, succs[0].Cost
		}
	}
	// The FTO interchange argument assumes the classic model: homogeneous
	// PEs and a remote communication cost that does not depend on which PE
	// pair carries the edge. Hop-scaled systems qualify iff every PE pair is
	// one hop apart (complete graphs and the degenerate 1–2 PE systems).
	m.ftoEligible = !sys.Heterogeneous() && (sys.Link() == procgraph.LinkUniform || sys.Diameter() <= 1)

	tlNoComm := tlMinNoComm(g, wMin)
	for n := 0; n < v; n++ {
		if lb := tlNoComm[n] + m.slMin[n]; lb > m.staticLB {
			m.staticLB = lb
		}
	}
	return m, nil
}

// tlMinNoComm computes t-levels with minimum execution costs and ZERO edge
// costs: the earliest conceivable start of each node on any system, used for
// the static lower bound (tasks on one PE pay no communication).
func tlMinNoComm(g *taskgraph.Graph, wMin []int32) []int32 {
	v := g.NumNodes()
	tl := make([]int32, v)
	for _, n := range g.TopoOrder() {
		var best int32
		for _, a := range g.Pred(n) {
			if t := tl[a.Node] + wMin[a.Node]; t > best {
				best = t
			}
		}
		tl[n] = best
	}
	return tl
}

// equivalenceClasses groups nodes per Definition 3: two nodes are equivalent
// iff they have identical predecessor sets, identical weights, and identical
// successor sets, with pairwise-equal edge costs (the condition that makes
// their t-levels and b-levels coincide). Each node maps to the lowest node
// id in its class.
func equivalenceClasses(g *taskgraph.Graph) []int32 {
	v := g.NumNodes()
	rep := make([]int32, v)
	byKey := map[string]int32{}
	var b strings.Builder
	for n := 0; n < v; n++ {
		b.Reset()
		fmt.Fprintf(&b, "w%d|p", g.Weight(int32(n)))
		for _, a := range g.Pred(int32(n)) {
			fmt.Fprintf(&b, "%d:%d,", a.Node, a.Cost)
		}
		b.WriteString("|s")
		for _, a := range g.Succ(int32(n)) {
			fmt.Fprintf(&b, "%d:%d,", a.Node, a.Cost)
		}
		key := b.String()
		if r, ok := byKey[key]; ok {
			rep[n] = r
		} else {
			byKey[key] = int32(n)
			rep[n] = int32(n)
		}
	}
	return rep
}

// ExecCost returns the execution cost of node n on PE pe.
func (m *Model) ExecCost(n, pe int32) int32 { return m.exec[n][pe] }

// StaticLevelMin returns sl(n) computed with minimum execution costs.
func (m *Model) StaticLevelMin(n int32) int32 { return m.slMin[n] }

// StaticLowerBound returns a graph-level lower bound on any schedule length.
func (m *Model) StaticLowerBound() int32 { return m.staticLB }

// PriorityOrder returns node ids by decreasing b-level + t-level. The caller
// must not modify the returned slice.
func (m *Model) PriorityOrder() []int32 { return m.prioOrder }

// EquivalenceRep returns the node-equivalence class representative of n.
func (m *Model) EquivalenceRep(n int32) int32 { return m.eqRep[n] }

// EquivalencePrev returns the next-lower node id in n's equivalence class,
// or -1 when n is the lowest member — the canonical order the
// equivalent-task pruning enforces.
func (m *Model) EquivalencePrev(n int32) int32 { return m.eqPrev[n] }

// FTOEligible reports whether the target system satisfies the classic-model
// assumptions of the fixed-task-order collapse (homogeneous PEs, pair-
// independent remote communication cost).
func (m *Model) FTOEligible() bool { return m.ftoEligible }

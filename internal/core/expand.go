package core

import (
	"time"
)

// Disable selects engine features to switch off, for the paper's "A* without
// state-space pruning" column in Table 1 and for per-technique ablations.
// The zero value (nothing disabled) is the full algorithm of §3.2.
type Disable uint8

const (
	// DisableIsomorphism turns off the processor-isomorphism pruning.
	DisableIsomorphism Disable = 1 << iota
	// DisableEquivalence turns off the node-equivalence pruning
	// (Definition 3).
	DisableEquivalence
	// DisableUpperBound turns off the upper-bound solution cost pruning.
	DisableUpperBound
	// DisablePriorityOrder expands ready nodes in node-id order instead of
	// decreasing b-level + t-level.
	DisablePriorityOrder
	// DisableDuplicateCheck turns off the OPEN ∪ CLOSED duplicate test —
	// exponentially wasteful, provided for ablation only.
	DisableDuplicateCheck
	// DisableEquivalentTasks turns off the equivalent-task fixed-order
	// pruning: branching only on a node whose next-lower equivalence-class
	// member is already scheduled, so every class is scheduled in one
	// canonical id order across the whole tree (the task-axis mirror of the
	// processor-interchangeability filter).
	DisableEquivalentTasks
	// DisableFTO turns off the fixed-task-order subtree collapse: when the
	// ready set provably admits a single optimal branching order
	// (arXiv 2405.15371), only the first node of that order is branched.
	DisableFTO

	// DisableAllPruning is the "A* full" configuration of Table 1: plain A*
	// with the paper's cost function and none of the prunings — neither the
	// paper's §3.2 set nor the modern equivalent-task/FTO collapses.
	DisableAllPruning = DisableIsomorphism | DisableEquivalence | DisableUpperBound |
		DisablePriorityOrder | DisableEquivalentTasks | DisableFTO
)

// disableNames maps the wire/CLI names of the pruning toggles onto bits.
// "all" selects DisableAllPruning.
var disableNames = map[string]Disable{
	"isomorphism":      DisableIsomorphism,
	"iso":              DisableIsomorphism,
	"equivalence":      DisableEquivalence,
	"equiv":            DisableEquivalence,
	"equivalent-tasks": DisableEquivalentTasks,
	"equiv-tasks":      DisableEquivalentTasks,
	"fto":              DisableFTO,
	"upper-bound":      DisableUpperBound,
	"ub":               DisableUpperBound,
	"priority-order":   DisablePriorityOrder,
	"duplicate-check":  DisableDuplicateCheck,
	"all":              DisableAllPruning,
}

// DisableByName resolves one pruning-toggle name ("iso", "equivalence",
// "equivalent-tasks", "fto", "upper-bound", "priority-order",
// "duplicate-check", "all") to its Disable bit. The bool reports whether
// the name is known.
func DisableByName(name string) (Disable, bool) {
	d, ok := disableNames[name]
	return d, ok
}

// HFunc selects the heuristic function.
type HFunc int

const (
	// HPaper is the paper's h(s) = max_{n_j ∈ succ(n_max)} sl(n_j).
	HPaper HFunc = iota
	// HPlus strengthens HPaper with two further admissible terms: the static
	// graph lower bound, and for every unscheduled node with a scheduled
	// parent, parent-finish + sl. Strictly tighter, costs O(depth) per
	// expansion and O(1) per child (ablation "hplus").
	HPlus
	// HLoad strengthens HPlus with two more admissible lower bounds: an
	// idle-aware load-balance bound ⌈(Σ committed PE timelines + remaining
	// minimum work)/P⌉, and a communication-aware critical path — for every
	// ready node, its earliest possible start on any PE (parents pay their
	// comm cost unless co-located) plus its static level. Strictly tighter
	// again. The earliest start is the minimum of the node's data-arrival
	// row, which child generation reads as well, so the bound costs
	// O(ready·indeg) arrival terms per target PE, once per expansion
	// (see prepCriticalPath).
	HLoad
)

// hFuncNames maps the wire/CLI names of the heuristic tiers.
var hFuncNames = map[string]HFunc{
	"paper": HPaper,
	"plus":  HPlus,
	"hplus": HPlus,
	"load":  HLoad,
	"hload": HLoad,
}

// HFuncByName resolves a heuristic-tier name ("paper", "plus", "load") to
// its HFunc. The bool reports whether the name is known.
func HFuncByName(name string) (HFunc, bool) {
	h, ok := hFuncNames[name]
	return h, ok
}

// Tracer records the search tree as it runs: the engine calls Expanded
// once per state expansion and Generated once per emitted (non-pruned,
// non-duplicate) child — the same set of states the paper's search-tree
// figures draw. The trace package's Recorder implements it to render
// Figures 3 and 5. Search effort is not counted here: Stats counts it, and
// a Progress publishes it live.
//
// A *State a Tracer receives is valid until the solve returns. States live
// in the solve's arena, which Search hands to a later solve, so a
// tracer that keeps a state past the solve must keep a copy
// (State.Detach; the trace package's tree does).
type Tracer interface {
	// Expanded is called when s is taken for expansion.
	Expanded(s *State)
	// Generated is called when child (created by expanding parent) is
	// emitted into the search.
	Generated(parent, child *State)
}

// Options configures a solve.
type Options struct {
	// Disable switches off individual prunings; zero means the full §3.2
	// algorithm.
	Disable Disable
	// Epsilon > 0 selects the approximate Aε* (§3.4): the returned schedule
	// is no longer than (1+Epsilon) times optimal.
	Epsilon float64
	// HFunc selects the heuristic; the default is the paper's.
	HFunc HFunc
	// UpperBound, when > 0, overrides the §3.2 upper bound U
	// (ResolveUpperBound).
	UpperBound int32
	// Stop, when non-nil, is polled once per expansion with the running
	// expansion count; returning true aborts the search, which then returns
	// the best schedule found so far (Optimal=false). Every engine polls it
	// at the same cadence. The canonical implementation is the
	// context/deadline/expansion-cap Budget of internal/engine — engines
	// carry no private cutoff plumbing of their own.
	Stop func(expanded int64) bool
	// Tracer, when non-nil, records the search tree (see Tracer).
	Tracer Tracer
	// Progress, when non-nil, receives the search's Stats and gauges live
	// (see Progress); every engine publishes into it.
	Progress *Progress
}

// Stats counts search effort; every engine fills one.
type Stats struct {
	Expanded     int64 // states removed from OPEN and expanded
	Generated    int64 // child states constructed
	PrunedIso    int64 // (node, PE) targets skipped by processor isomorphism
	PrunedEquiv  int64 // ready nodes skipped by node equivalence / equivalent-task order
	PrunedFTO    int64 // ready nodes skipped by the fixed-task-order collapse
	PrunedUB     int64 // children discarded with f > U
	PrunedBound  int64 // children discarded against the incumbent
	Duplicates   int64 // children rejected by the visited table
	MaxOpen      int   // peak OPEN size
	VisitedSize  int   // final visited-table population
	Rounds       int64 // parallel engine: communication rounds
	StatesShared int64 // parallel engine: states moved between PPEs
	// CriticalWork is the parallel engine's modeled critical path: the sum
	// over rounds of the maximum per-PPE expansions in that round (plus one
	// per round of neighborhood vote expansions). With one physical core per
	// PPE and uniform expansion cost, wall time is proportional to it; the
	// Figure 6 harness derives its modeled speedup from this (see DESIGN.md
	// §5 on the Paragon substitution).
	CriticalWork int64
	UpperBound   int32 // the U that was used (0 if disabled)
	StaticLB     int32 // graph-level lower bound
	WallTime     time.Duration
}

// Add accumulates other into s (used to merge per-PPE stats).
func (s *Stats) Add(other *Stats) {
	s.Expanded += other.Expanded
	s.Generated += other.Generated
	s.PrunedIso += other.PrunedIso
	s.PrunedEquiv += other.PrunedEquiv
	s.PrunedFTO += other.PrunedFTO
	s.PrunedUB += other.PrunedUB
	s.PrunedBound += other.PrunedBound
	s.Duplicates += other.Duplicates
	if other.MaxOpen > s.MaxOpen {
		s.MaxOpen = other.MaxOpen
	}
	s.VisitedSize += other.VisitedSize
	s.StatesShared += other.StatesShared
}

// Expander generates the children of a state: the expansion operator of
// §3.1 (every ready node onto every PE) filtered by the §3.2 prunings. One
// Expander per worker; it owns reusable scratch arrays and a state Arena, so
// expansion performs no heap allocation at all on the hot path — child
// states come from the arena's slabs, and every filter (isomorphism class
// dedup, equivalence classes, the hPlus and critical-path bounds) runs on
// preallocated scratch.
type Expander struct {
	M       *Model
	Disable Disable
	HFunc   HFunc

	// UB is the inclusive upper-bound prune: children with f > UB are
	// discarded. Zero disables.
	UB int32
	// Bound, when non-nil, returns the current incumbent bound; children
	// with f >= Bound() are discarded (they cannot improve on a complete
	// schedule already in hand). Used for cross-PPE pruning.
	Bound func() int32
	// Tracer, when non-nil, receives the expansion/generation events.
	Tracer Tracer

	Stats *Stats

	arena    *Arena
	procOf   []int32 // scratch: per node, assigned PE or -1
	finishOf []int32
	sched    []int32 // scratch: the scheduled nodes of the loaded state
	rt       []int32 // scratch: per PE ready time (Definition 1)
	cnt      []int32 // scratch: per PE number of assigned nodes
	eqSeen   []bool  // scratch: equivalence classes already branched
	isoSeen  []bool  // scratch: interchangeability classes with an empty representative
	targets  []int32 // scratch: PEs surviving the isomorphism filter, ascending
	ready    []int32 // scratch: ready nodes surviving the task prunings, branch order
	arrival  []int32 // scratch, V×P (at most 1 MiB): ready[i]'s data-arrival times, see arrivalRow
	ftoN     []int32 // scratch: indexes into ready, sorted by the FTO dominance order
	ftoDRT   []int32 // scratch: their data-ready times (remote arrival)
	ftoOut   []int32 // scratch: their out-edge comm costs

	// HLoad per-state scratch: committed PE-timeline sum and remaining
	// minimum work (load-balance bound), plus the largest comm-aware
	// critical-path bound over the ready set.
	sumRT  int64
	remMin int64
	cpTop  int32

	// HPlus per-state scratch: the largest FT(q) + maxSlSucc(q) over the
	// scheduled nodes q (see prepPlus).
	plusTop int32
}

// NewExpander returns an expander for the model with its own scratch space
// and a fresh state arena.
func (m *Model) NewExpander(opt Options, stats *Stats) *Expander {
	return m.newExpander(opt, stats, NewArena())
}

// newExpander returns an expander that allocates its states from arena.
func (m *Model) newExpander(opt Options, stats *Stats, arena *Arena) *Expander {
	return &Expander{
		M:        m,
		Disable:  opt.Disable,
		HFunc:    opt.HFunc,
		Tracer:   opt.Tracer,
		Stats:    stats,
		arena:    arena,
		procOf:   make([]int32, m.V),
		finishOf: make([]int32, m.V),
		sched:    make([]int32, 0, m.V),
		rt:       make([]int32, m.P),
		cnt:      make([]int32, m.P),
		eqSeen:   make([]bool, m.V),
		isoSeen:  make([]bool, m.P),
		targets:  make([]int32, 0, m.P),
		ready:    make([]int32, 0, m.V),
		arrival:  make([]int32, m.V*m.P),
		ftoN:     make([]int32, 0, m.V),
		ftoDRT:   make([]int32, 0, m.V),
		ftoOut:   make([]int32, 0, m.V),
	}
}

// Arena returns the expander's state arena. The depth-first engines use its
// Mark/Release to rewind finished DFS frames.
func (e *Expander) Arena() *Arena { return e.arena }

// load materializes s's partial schedule into the scratch arrays.
//
//icpp98:hotpath
func (e *Expander) load(s *State) {
	for i := range e.procOf {
		e.procOf[i] = -1
	}
	for i := range e.rt {
		e.rt[i] = 0
		e.cnt[i] = 0
	}
	e.sched = e.sched[:0]
	var schedMin int64
	for cur := s; cur != nil && cur.node >= 0; cur = cur.parent {
		e.procOf[cur.node] = cur.proc
		e.finishOf[cur.node] = cur.finish
		e.sched = append(e.sched, cur.node)
		e.cnt[cur.proc]++
		schedMin += int64(e.M.wMin[cur.node])
		if cur.finish > e.rt[cur.proc] {
			e.rt[cur.proc] = cur.finish
		}
	}
	e.remMin = e.M.totalWMin - schedMin
	e.sumRT = 0
	for _, t := range e.rt {
		e.sumRT += int64(t)
	}
}

// Expand generates every non-pruned child of s. Children that pass the
// visited test (when visited is non-nil) are handed to emit. It returns the
// number of children emitted.
//
//icpp98:hotpath
func (e *Expander) Expand(s *State, visited *Visited, emit func(*State)) int {
	m := e.M
	e.load(s)
	if e.Stats != nil {
		e.Stats.Expanded++
	}
	if e.Tracer != nil {
		e.Tracer.Expanded(s)
	}

	// Processor-isomorphism pruning: among empty PEs of one
	// interchangeability class, only the lowest-indexed is a target.
	e.targets = e.targets[:0]
	iso := e.Disable&DisableIsomorphism == 0
	if iso {
		for pe := 0; pe < m.P; pe++ {
			e.isoSeen[pe] = false
		}
	}
	for pe := int32(0); int(pe) < m.P; pe++ {
		if iso && e.cnt[pe] == 0 {
			rep := m.procRep[pe]
			if e.isoSeen[rep] {
				continue
			}
			e.isoSeen[rep] = true
		}
		e.targets = append(e.targets, pe)
	}

	order := m.prioOrder
	if e.Disable&DisablePriorityOrder != 0 {
		order = nil // fall back to node-id order below
	}
	for i := range e.eqSeen {
		e.eqSeen[i] = false
	}

	// Collect the ready nodes that survive the task-axis prunings, in
	// branch order.
	e.ready = e.ready[:0]
	for i := 0; i < m.V; i++ {
		var n int32
		if order != nil {
			n = order[i]
		} else {
			n = int32(i)
		}
		if e.procOf[n] >= 0 {
			continue
		}
		ready := true
		for _, a := range m.G.Pred(n) {
			if e.procOf[a.Node] < 0 {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		// Equivalent-task fixed order: only the lowest unscheduled member
		// of each class is a branch target (class members have identical
		// predecessor sets, so every unscheduled member is ready whenever
		// one is — the check never starves a class).
		if e.Disable&DisableEquivalentTasks == 0 {
			if p := m.eqPrev[n]; p >= 0 && e.procOf[p] < 0 {
				if e.Stats != nil {
					e.Stats.PrunedEquiv++
				}
				continue
			}
		}
		if e.Disable&DisableEquivalence == 0 {
			rep := m.eqRep[n]
			if e.eqSeen[rep] {
				if e.Stats != nil {
					e.Stats.PrunedEquiv++
				}
				continue
			}
			e.eqSeen[rep] = true
		}
		e.ready = append(e.ready, n)
	}

	// HPlus: the bound over the parent's scheduled nodes is shared by every
	// child, so it is computed once per expansion.
	if e.HFunc != HPaper {
		e.prepPlus()
	}

	// HLoad: the comm-aware critical-path bounds are a function of the
	// parent placements only, so they are computed once per expansion over
	// the full surviving ready set — before any FTO truncation, since an
	// FTO-skipped node is still unscheduled in every child and remains a
	// valid lower-bound witness. The arrival rows they read are the ones
	// child generation reads below.
	if e.HFunc == HLoad {
		e.prepArrivals()
		e.prepCriticalPath()
	}

	// Fixed-task-order collapse: when the ready set provably admits a
	// single optimal branching order, branch only its first node, whose
	// arrival row (if already computed) moves to row 0 with it.
	if e.Disable&DisableFTO == 0 && m.ftoEligible && len(e.ready) > 1 {
		if i, ok := e.ftoFirst(); ok {
			if e.Stats != nil {
				e.Stats.PrunedFTO += int64(len(e.ready) - 1)
			}
			if e.HFunc == HLoad {
				copy(e.arrivalRow(0), e.arrivalRow(int(i)))
			}
			e.ready = append(e.ready[:0], e.ready[i])
		}
	}
	// The other tiers need rows only for the nodes they branch on.
	if e.HFunc != HLoad {
		e.prepArrivals()
	}
	if e.Stats != nil {
		e.Stats.PrunedIso += int64(m.P-len(e.targets)) * int64(len(e.ready))
	}

	emitted := 0
	for i, n := range e.ready {
		emitted += e.expandNode(s, n, e.arrivalRow(i), visited, emit)
	}
	return emitted
}

// ftoFirst checks the fixed-task-order condition on the surviving ready set
// and, when it holds, returns the index in e.ready of the single node the
// whole set collapses to: every ready node has at most one parent and one
// child, either no ready node has a child or all share one, all present
// parents sit on one PE,
// and sorting by (data-ready time ascending, out-edge cost descending)
// yields non-increasing out-edge costs — in which case an optimal schedule
// starts the ready nodes in exactly that order (arXiv 2405.15371), so
// branching any other node first is redundant. Data-ready time is the
// remote arrival finish(parent) + c(edge), which is PE-independent on the
// classic systems ftoEligible admits; on the parents' own PE every ready
// node is ready at once, since that PE is busy until its last parent
// ends. Parents on two PEs would break this: a node may start on its own
// parent's PE before data reaches it anywhere else. So would a childless
// node beside the child's parents: the child does not wait for it, so it
// may finish after them at no cost, whatever its data-ready time.
//
//icpp98:hotpath
func (e *Expander) ftoFirst() (int32, bool) {
	m := e.M
	sharedChild, parentPE := int32(-1), int32(-1)
	childless := false
	for _, n := range e.ready {
		if !m.ftoOK[n] {
			return 0, false
		}
		switch c := m.ftoChild[n]; {
		case c < 0:
			childless = true
		case sharedChild < 0:
			sharedChild = c
		case sharedChild != c:
			return 0, false
		}
		if p := m.ftoParent[n]; p >= 0 {
			if parentPE < 0 {
				parentPE = e.procOf[p]
			} else if parentPE != e.procOf[p] {
				return 0, false
			}
		}
	}
	if childless && sharedChild >= 0 {
		return 0, false
	}
	// Insertion sort into the scratch arrays by (drt asc, out desc, id asc);
	// ready sets are small and the arrays are preallocated, so the hot path
	// stays allocation-free.
	e.ftoN, e.ftoDRT, e.ftoOut = e.ftoN[:0], e.ftoDRT[:0], e.ftoOut[:0]
	for idx, n := range e.ready {
		var drt int32
		if p := m.ftoParent[n]; p >= 0 {
			drt = e.finishOf[p] + m.ftoParentCost[n]
		}
		out := m.ftoOutCost[n]
		i := len(e.ftoN)
		e.ftoN = append(e.ftoN, 0)
		e.ftoDRT = append(e.ftoDRT, 0)
		e.ftoOut = append(e.ftoOut, 0)
		for i > 0 && (drt < e.ftoDRT[i-1] ||
			drt == e.ftoDRT[i-1] && (out > e.ftoOut[i-1] ||
				out == e.ftoOut[i-1] && n < e.ready[e.ftoN[i-1]])) {
			e.ftoN[i], e.ftoDRT[i], e.ftoOut[i] = e.ftoN[i-1], e.ftoDRT[i-1], e.ftoOut[i-1]
			i--
		}
		e.ftoN[i], e.ftoDRT[i], e.ftoOut[i] = int32(idx), drt, out
	}
	for i := 1; i < len(e.ftoOut); i++ {
		if e.ftoOut[i] > e.ftoOut[i-1] {
			return 0, false
		}
	}
	return e.ftoN[0], true
}

// prepPlus computes, once per expansion, the parent's half of the hPlus
// bound: the largest FT(q) + maxSlSucc(q) over its scheduled nodes q, where
// maxSlSucc(q) is the largest sl_min over q's children. hPlus is defined
// over unscheduled children only (u cannot start before q finishes, and at
// least sl_min(u) work follows), but counting the scheduled ones as well
// changes no child's h: a scheduled child u finishes no earlier than
// FT(q) + w_min(u), so FT(q) + sl_min(u) <= FT(u) + maxSlSucc(u), and
// following such children ends at an unscheduled node (a true bound), at
// the child's new node n (whose own term hPlus adds), or at a scheduled
// exit (at most g). So the maximum needs no edge scan and no mask test.
//
//icpp98:hotpath
func (e *Expander) prepPlus() {
	m := e.M
	e.plusTop = 0
	for _, q := range e.sched {
		if b := e.finishOf[q] + m.maxSlSucc[q]; b > e.plusTop {
			e.plusTop = b
		}
	}
}

// prepArrivals computes, once per expansion, each ready node's
// data-arrival time on each target PE: the latest parent finish plus that
// edge's comm cost (zero when co-located). Row i of e.arrival belongs to
// e.ready[i], column k to e.targets[k]; a child's start time is then
// max(rt[pe], row[k]) with no predecessor scan.
//
//icpp98:hotpath
func (e *Expander) prepArrivals() {
	m := e.M
	for i, n := range e.ready {
		row := e.arrivalRow(i)
		for k := range row {
			row[k] = 0
		}
		for _, a := range m.G.Pred(n) {
			fin, q := e.finishOf[a.Node], int(e.procOf[a.Node])
			for k, pe := range e.targets {
				if t := fin + m.Sys.CommCost(a.Cost, q, int(pe)); t > row[k] {
					row[k] = t
				}
			}
		}
	}
}

// arrivalRow returns the data-arrival row of e.ready[i]: its k-th entry is
// the time the node's last parent message reaches e.targets[k].
//
//icpp98:hotpath
func (e *Expander) arrivalRow(i int) []int32 {
	return e.arrival[i*e.M.P : i*e.M.P+len(e.targets)]
}

// prepCriticalPath computes, for every surviving ready node u, the
// communication-aware earliest-start bound min over PEs of the latest
// parent arrival (each parent pays its comm cost unless co-located) plus
// sl_min(u) — a lower bound on any schedule that still has to run u. Only
// the largest is kept, even for the child that schedules its witness n:
// there lbStart(n) <= st and sl_min(n) = w_min(n) + maxSlSucc(n) with
// w_min(n) <= exec(n, pe), so n's bound is at most ft + maxSlSucc(n),
// which hPlus already adds to h.
//
// The minimum runs over u's arrival row, which covers the target PEs
// only, and equals the minimum over all P PEs. A PE the isomorphism filter
// drops is empty, and so is its class's target: interchangeable PEs have
// equal distances to every PE outside the pair, and no parent sits on
// either, so both see every parent at the same comm cost.
//
//icpp98:hotpath
func (e *Expander) prepCriticalPath() {
	m := e.M
	e.cpTop = 0
	for i, n := range e.ready {
		lbStart := int32(1<<31 - 1)
		for _, t := range e.arrivalRow(i) {
			lbStart = min(lbStart, t)
		}
		if cpb := lbStart + m.slMin[n]; cpb > e.cpTop {
			e.cpTop = cpb
		}
	}
}

// expandNode generates the children that assign ready node n to each
// target PE; arrival is n's data-arrival row (see prepArrivals).
//
//icpp98:hotpath
func (e *Expander) expandNode(s *State, n int32, arrival []int32, visited *Visited, emit func(*State)) int {
	m := e.M
	emitted := 0
	for k, pe := range e.targets {
		st := max(e.rt[pe], arrival[k])
		ft := st + m.exec[n][pe]

		g := s.g
		if ft > g {
			g = ft
		}
		var h int32
		switch {
		case ft > s.g:
			h = m.maxSlSucc[n]
		case ft == s.g:
			h = s.h
			if m.maxSlSucc[n] > h {
				h = m.maxSlSucc[n]
			}
		default:
			h = s.h
		}
		if e.HFunc != HPaper {
			h = e.hPlus(n, ft, g, h)
		}
		if e.HFunc == HLoad {
			// Load-balance bound: every PE timeline in the child is at least
			// its committed ready time (ft for pe), and the remaining minimum
			// work must fit somewhere, so P·makespan ≥ Σ rt' + remaining.
			// ⌈x/P⌉ > g+h exactly when x > (g+h)·P, so the divide runs only
			// when the term raises h.
			x := e.sumRT - int64(e.rt[pe]) + int64(ft) + e.remMin - int64(m.wMin[n])
			if p := int64(m.P); x > int64(g+h)*p {
				h = int32((x+p-1)/p) - g
			}
			// Comm-aware critical path over the parent's ready set (n's own
			// bound included: hPlus dominates it, see prepCriticalPath).
			if e.cpTop-g > h {
				h = e.cpTop - g
			}
		}
		f := g + h

		if e.UB > 0 && e.Disable&DisableUpperBound == 0 && f > e.UB {
			if e.Stats != nil {
				e.Stats.PrunedUB++
			}
			continue
		}
		if e.Bound != nil {
			if b := e.Bound(); b > 0 && f >= b {
				if e.Stats != nil {
					e.Stats.PrunedBound++
				}
				continue
			}
		}

		child := e.arena.New()
		*child = State{
			parent: s,
			sig:    s.sig ^ sigMix(n, pe, st),
			g:      g,
			h:      h,
			f:      f,
			node:   n,
			proc:   pe,
			start:  st,
			finish: ft,
			depth:  s.depth + 1,
		}
		if e.Stats != nil {
			e.Stats.Generated++
		}
		if visited != nil && e.Disable&DisableDuplicateCheck == 0 && !visited.Add(child) {
			if e.Stats != nil {
				e.Stats.Duplicates++
			}
			// The duplicate is dead on arrival: hand its slot straight back
			// to the arena instead of letting rejected children pile up in
			// the slabs.
			e.arena.Recycle(child)
			continue
		}
		if e.Tracer != nil {
			e.Tracer.Generated(s, child)
		}
		emit(child)
		emitted++
	}
	return emitted
}

// hPlus strengthens h with further admissible lower bounds: the schedule
// cannot finish before the graph's static lower bound, nor before
// FT(q) + sl_min(u) for any scheduled node q with an unscheduled child u.
// The parent's scheduled nodes contribute prepPlus's maximum; the
// just-scheduled node n contributes ft + maxSlSucc(n), the largest
// ft + sl_min(u) over its children u, all of them unscheduled (n was
// ready). O(1) per child.
//
//icpp98:hotpath
func (e *Expander) hPlus(n int32, ft, g, h int32) int32 {
	m := e.M
	if lb := m.staticLB - g; lb > h {
		h = lb
	}
	if hb := e.plusTop - g; hb > h {
		h = hb
	}
	if hb := ft + m.maxSlSucc[n] - g; hb > h {
		h = hb
	}
	return h
}

// Package parallel implements the parallel A* scheduling algorithm of §3.3
// (and its Aε* variant, §4.4): q physical processing elements (PPEs) — one
// goroutine each — search the state space cooperatively, each with a private
// OPEN list and CLOSED (visited) table.
//
// The runtime is bulk-synchronous: rounds of local expansion separated by
// coordinated communication phases, standing in for the Intel Paragon's
// message passing (see DESIGN.md §5 for the substitution argument). Every
// policy follows the paper:
//
//   - initial load distribution: expand from the empty state until at least
//     q states exist, sort by cost, deal them out interleaved (PE0, PE q-1,
//     PE1, PE q-2, ...), extras round-robin (§3.3 cases 1–3);
//   - communication period: T expansions per round with T = v/2, v/4, ...
//     down to a floor of 2;
//   - neighbor-only exchange on the PPE interconnect topology: each
//     neighborhood votes and elects its best state, expands it, and deals
//     the children round-robin across the group;
//   - round-robin load sharing toward the neighborhood average N_avg;
//   - per-PPE CLOSED lists only (no global duplicate table).
//
// Because states reachable by different task interleavings reconverge
// heavily in this problem, local-only CLOSED lists re-explore work other
// PPEs have done. DistributeHash switches the engine to hash-based
// state-space partitioning (global duplicate pruning with the table sharded
// by state signature — the scheme of Mahapatra & Dutt, the paper's
// ref. [15]) as a measured alternative.
//
// Termination strengthens the paper's first-goal broadcast into a proof:
// any complete schedule becomes the shared incumbent, PPEs prune against it,
// and the search stops once incumbent <= (1+ε) * (global minimum f), which
// establishes optimality (ε = 0) or ε-admissibility.
package parallel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/procgraph"
)

// Distribution selects how newly generated states are placed on PPEs.
type Distribution int

const (
	// DistributeNeighborRR is the paper's scheme: children stay local,
	// neighborhoods exchange elected states and balance load round-robin;
	// duplicate checking is per-PPE only.
	DistributeNeighborRR Distribution = iota
	// DistributeHash routes every generated state to the PPE owning its
	// signature hash, which dedups globally with a sharded table
	// (ref. [15]); deliveries happen at round boundaries to preserve the
	// bulk-synchronous determinism.
	DistributeHash
)

func (d Distribution) String() string {
	switch d {
	case DistributeNeighborRR:
		return "neighbor-rr"
	case DistributeHash:
		return "hash"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// Options configures a parallel solve: the shared search settings (Stop is
// polled between rounds with the total expansion count across all PPEs,
// and the PPEs' summed Stats are published into Progress there) plus the
// machine model. The shared Tracer is ignored: the PPEs run
// concurrently, so each gets its own from TracerFor.
type Options struct {
	core.Options
	// PPEs is the number of search workers (>= 1).
	PPEs int
	// Interconnect is the PPE topology; nil selects a near-square mesh (the
	// Paragon's topology).
	Interconnect *procgraph.System
	// PeriodFloor is the minimum communication period T; the paper uses 2.
	PeriodFloor int
	// Distribution selects the state-placement policy (default: the paper's
	// neighbor round-robin).
	Distribution Distribution
	// TracerFor, when non-nil, supplies one core.Tracer per PPE; PPE i's
	// expander reports its expansion/generation events to TracerFor(i).
	// The initial seeding phase (§3.3 cases 1–3) runs on PPE 0's expander
	// and is attributed to it. Used by the trace package to render
	// Figure 5-style parallel search trees.
	TracerFor func(ppe int) core.Tracer
}

type ppe struct {
	id      int
	open    core.Queue
	visited *core.Visited
	exp     *core.Expander
	stats   core.Stats
	goal    *core.State     // best complete state found locally, pending merge
	bound   int32           // incumbent bound, updated during comm phases
	outbox  [][]*core.State // hash mode: states destined for other PPEs
}

// runLocal performs up to budget expansions from the local OPEN list and
// returns how many it did.
func (w *ppe) runLocal(m *core.Model, budget int, hash bool, q int) int {
	var emit func(*core.State)
	if hash {
		emit = func(c *core.State) {
			if c.Complete(m) {
				if w.goal == nil || c.F() < w.goal.F() {
					w.goal = c
				}
				return
			}
			owner := int(c.Sig() % uint64(q))
			if owner == w.id {
				if !w.visited.Add(c) {
					w.stats.Duplicates++
					return
				}
				w.open.Push(c)
				return
			}
			w.outbox[owner] = append(w.outbox[owner], c)
		}
	} else {
		emit = func(c *core.State) {
			if c.Complete(m) {
				if w.goal == nil || c.F() < w.goal.F() {
					w.goal = c
				}
				return
			}
			w.open.Push(c)
		}
	}
	done := 0
	for ; done < budget; done++ {
		fmin, ok := w.open.MinF()
		if !ok {
			break
		}
		if w.bound > 0 && fmin >= w.bound {
			break // nothing local can beat the incumbent
		}
		s := w.open.Pop()
		if s == nil {
			break
		}
		if hash {
			// Global dedup happened at generation; expand without the local
			// visited check (the table still records membership).
			w.exp.Expand(s, nil, emit)
		} else {
			w.exp.Expand(s, w.visited, emit)
		}
	}
	return done
}

// Search runs the parallel A*/Aε* under the upper bound s.UB, with the
// same outcome contract as the serial engine. It fails only on a machine
// model that opt does not describe consistently.
func Search(m *core.Model, opt Options, s core.Start) (core.Outcome, error) {
	q := opt.PPEs
	if q < 1 {
		return core.Outcome{}, fmt.Errorf("parallel: need at least 1 PPE, got %d", q)
	}
	inter := opt.Interconnect
	if inter == nil {
		inter = procgraph.MeshFor(q)
	}
	if inter.NumProcs() != q {
		return core.Outcome{}, fmt.Errorf("parallel: interconnect has %d PPEs, options say %d", inter.NumProcs(), q)
	}
	floor := opt.PeriodFloor
	if floor < 1 {
		floor = 2 // the paper's minimum period
	}
	hash := opt.Distribution == DistributeHash

	opt.Tracer = nil // see Options
	ub := s.UB

	workers := make([]*ppe, q)
	for i := range workers {
		w := &ppe{id: i, open: core.NewQueue(opt.Options), visited: core.NewVisited()}
		w.exp = m.NewExpander(opt.Options, &w.stats)
		if opt.TracerFor != nil {
			w.exp.Tracer = opt.TracerFor(i)
		}
		w.exp.UB = ub
		wi := w
		w.exp.Bound = func() int32 { return wi.bound }
		if hash {
			w.outbox = make([][]*core.State, q)
		}
		workers[i] = w
	}

	var incumbent *core.State
	mergeGoals := func() {
		for _, w := range workers {
			if w.goal != nil && (incumbent == nil || w.goal.F() < incumbent.F()) {
				incumbent = w.goal
			}
			w.goal = nil
		}
		if incumbent != nil {
			for _, w := range workers {
				w.bound = incumbent.F()
			}
		}
	}
	// deliver routes a NEWLY GENERATED state to a worker's OPEN with
	// duplicate checking against the recipient's table: a hit means the
	// recipient queued or expanded an identical partial schedule before, and
	// since live states are never dropped in transit (see transfer), that
	// earlier copy's subtree is covered.
	deliver := func(target *ppe, s *core.State) {
		if !target.visited.Add(s) {
			target.stats.Duplicates++
			return
		}
		target.open.Push(s)
	}
	// transfer moves a LIVE state (popped from another OPEN list) and must
	// never drop it: the recipient's visited table may know the state from a
	// copy that has since moved away, so a visited hit does not imply a live
	// duplicate exists. The table is still updated for future dedup.
	transfer := func(target *ppe, s *core.State) {
		target.visited.Add(s)
		target.open.Push(s)
	}
	// flushOutboxes delivers hash-routed states, in PPE-id order for
	// determinism.
	flushOutboxes := func() {
		if !hash {
			return
		}
		for _, w := range workers {
			for t, box := range w.outbox {
				for _, s := range box {
					deliver(workers[t], s)
					w.stats.StatesShared++
				}
				w.outbox[t] = box[:0]
			}
		}
	}

	// Initial load distribution (§3.3): expand from the empty state until at
	// least q states exist (or the space is exhausted), then deal the
	// sorted states interleaved; extras round-robin.
	seedStates, seedGoal := seedSearch(m, workers[0], q)
	if seedGoal != nil {
		workers[0].goal = seedGoal
	}
	dealInterleaved(seedStates, workers)
	mergeGoals()

	totals := func() core.Stats {
		var t core.Stats
		for _, w := range workers {
			t.Add(&w.stats)
		}
		return t
	}

	var rounds, critWork int64
	T := m.V / 2
	if T < floor {
		T = floor
	}
	// Persistent PPE goroutines: the paper's T=2 communication floor makes
	// rounds very frequent, so per-round goroutine spawning would dominate;
	// instead each PPE blocks on its start channel between rounds and
	// reports the number of expansions it performed.
	startCh := make([]chan int, q)
	doneCh := make(chan int, q)
	for i, w := range workers {
		startCh[i] = make(chan int, 1)
		go func(w *ppe, start <-chan int) {
			for budget := range start {
				doneCh <- w.runLocal(m, budget, hash, q)
			}
		}(w, startCh[i])
	}
	defer func() {
		for _, ch := range startCh {
			close(ch)
		}
	}()

	// publish hands the PPEs' summed Stats to the Progress, if any, at a
	// round boundary, where every live state sits in some OPEN list and
	// their minimum f is a proven lower bound.
	meter := opt.Progress.Meter()
	publish := func(gmin int32) {
		t, open, inc := totals(), 0, ub
		for _, w := range workers {
			open += w.open.Len()
		}
		if incumbent != nil {
			inc = incumbent.F()
		}
		meter.Publish(&t, open, inc, gmin)
	}

	proved := false
	var gmin int32
	for {
		// Termination / cutoff checks on globally consistent state.
		var anyOpen bool
		gmin, anyOpen = globalMinF(workers)
		if !anyOpen {
			proved = true
			break
		}
		if incumbent != nil && float64(incumbent.F()) <= (1+opt.Epsilon)*float64(gmin) {
			proved = true
			break
		}
		if meter != nil {
			publish(gmin)
		}
		if opt.Stop != nil && opt.Stop(totals().Expanded) {
			break
		}

		// Parallel phase: every PPE expands up to T states independently.
		rounds++
		for i := range workers {
			startCh[i] <- T
		}
		roundMax := 0
		for range workers {
			if n := <-doneCh; n > roundMax {
				roundMax = n
			}
		}
		critWork += int64(roundMax)

		// Communication phase (coordinator): deliver hash-routed states,
		// merge incumbents, then neighborhood vote-and-elect and round-robin
		// load sharing.
		flushOutboxes()
		mergeGoals()
		if voteAndElect(m, workers, inter, hash, deliver) {
			critWork++ // neighborhood expansions run concurrently on the real machine
		}
		mergeGoals()
		flushOutboxes()
		loadShare(workers, inter, transfer)

		// Exponentially decreasing communication period (§3.3).
		if T/2 >= floor {
			T /= 2
		} else {
			T = floor
		}
	}

	if meter != nil {
		publish(gmin)
	}
	out := core.Outcome{Proved: proved, Stats: totals()}
	out.Stats.Rounds = rounds
	out.Stats.CriticalWork = critWork
	out.Stats.UpperBound = ub
	out.Stats.StaticLB = m.StaticLowerBound()
	if incumbent != nil {
		out.Best = m.ScheduleOf(incumbent)
		gmin, anyOpen := globalMinF(workers)
		out.Exact = !anyOpen || incumbent.F() <= gmin
	}
	return out, nil
}

// seedSearch expands best-first from the root until at least want states are
// in hand (or the space is exhausted) and returns them sorted by cost. A
// complete state encountered during seeding is returned as an incumbent.
func seedSearch(m *core.Model, w *ppe, want int) ([]*core.State, *core.State) {
	open := core.NewBestFirstQueue()
	var goal *core.State
	emit := func(c *core.State) {
		if c.Complete(m) {
			if goal == nil || c.F() < goal.F() {
				goal = c
			}
			return
		}
		open.Push(c)
	}
	w.exp.Expand(core.Root(), w.visited, emit)
	for open.Len() > 0 && open.Len() < want {
		if goal != nil {
			if fmin, ok := open.MinF(); ok && goal.F() <= fmin {
				break // seeding already proved optimality
			}
		}
		s := open.Pop()
		w.exp.Expand(s, w.visited, emit)
	}
	// Drain in increasing cost order.
	states := make([]*core.State, 0, open.Len())
	for {
		s := open.Pop()
		if s == nil {
			break
		}
		states = append(states, s)
	}
	return states, goal
}

// dealInterleaved distributes cost-sorted states per §3.3 case 3: the best
// state to PPE 0, the next to PPE q-1, then PPE 1, PPE q-2, and so on;
// remaining states round-robin. Seed states are already in PPE 0's visited
// table; recipients record them too so they do not regenerate them.
func dealInterleaved(states []*core.State, workers []*ppe) {
	q := len(workers)
	targets := make([]int, 0, q)
	lo, hi := 0, q-1
	for lo <= hi {
		targets = append(targets, lo)
		if hi != lo {
			targets = append(targets, hi)
		}
		lo++
		hi--
	}
	for i, s := range states {
		var t int
		if i < q {
			t = targets[i]
		} else {
			t = i % q
		}
		w := workers[t]
		if t != 0 {
			w.visited.Add(s)
		}
		w.open.Push(s)
	}
}

// globalMinF returns the minimum f over every PPE's OPEN list.
func globalMinF(workers []*ppe) (int32, bool) {
	var gmin int32
	any := false
	for _, w := range workers {
		if f, ok := w.open.MinF(); ok {
			if !any || f < gmin {
				gmin = f
			}
			any = true
		}
	}
	return gmin, any
}

// voteAndElect performs the paper's per-neighborhood communication: each
// neighborhood (a PPE and its interconnect neighbors) elects the best-cost
// state among its members' OPEN lists, the owner expands it, and the
// children are dealt round-robin across the group (each checked against the
// recipient's own CLOSED table, per the paper's local-only duplicate
// checking). In hash mode, children route to their signature owners instead.
// It reports whether any expansion happened.
func voteAndElect(m *core.Model, workers []*ppe, inter *procgraph.System, hash bool, deliver func(*ppe, *core.State)) bool {
	q := len(workers)
	if q == 1 {
		return false
	}
	expandedAny := false
	group := make([]int, 0, 8)
	for i := 0; i < q; i++ {
		group = group[:0]
		group = append(group, i)
		for _, nb := range inter.Neighbors(i) {
			group = append(group, int(nb))
		}
		// Vote: find the member holding the globally best state.
		owner := -1
		var best int32
		for _, id := range group {
			if f, ok := workers[id].open.MinF(); ok && (owner < 0 || f < best) {
				owner, best = id, f
			}
		}
		if owner < 0 {
			continue
		}
		w := workers[owner]
		if w.bound > 0 && best >= w.bound {
			continue // electing it would be wasted work
		}
		s := w.open.Pop()
		if s == nil {
			continue
		}
		expandedAny = true
		// Expand on the owner; deal children round-robin across the group
		// (or to their hash owners).
		rr := 0
		w.exp.Expand(s, nil, func(c *core.State) {
			var target *ppe
			if hash {
				target = workers[int(c.Sig()%uint64(q))]
			} else {
				target = workers[group[rr%len(group)]]
				rr++
			}
			if c.Complete(m) {
				if target.goal == nil || c.F() < target.goal.F() {
					target.goal = c
				}
				return
			}
			deliver(target, c)
			if target != w {
				w.stats.StatesShared++
			}
		})
	}
	return expandedAny
}

// loadShare runs the ROUND-ROBIN LOAD SHARING of §3.3 within each
// neighborhood: members holding more than the neighborhood average N_avg
// hand surplus states round-robin to members below the average. Moves are
// loss-free: the recipient records the state for future dedup but always
// queues it (dropping a live state would silently truncate the search).
func loadShare(workers []*ppe, inter *procgraph.System, transfer func(*ppe, *core.State)) {
	q := len(workers)
	if q == 1 {
		return
	}
	group := make([]int, 0, 8)
	for i := 0; i < q; i++ {
		group = group[:0]
		group = append(group, i)
		for _, nb := range inter.Neighbors(i) {
			group = append(group, int(nb))
		}
		total := 0
		for _, id := range group {
			total += workers[id].open.Len()
		}
		navg := (total + len(group) - 1) / len(group)
		var deficit []int
		for _, id := range group {
			if workers[id].open.Len() < navg {
				deficit = append(deficit, id)
			}
		}
		if len(deficit) == 0 {
			continue
		}
		rr := 0
		for _, id := range group {
			w := workers[id]
			for w.open.Len() > navg {
				target := workers[deficit[rr%len(deficit)]]
				rr++
				if target.open.Len() >= navg {
					// Recheck: earlier transfers may have filled it.
					filled := true
					for _, d := range deficit {
						if workers[d].open.Len() < navg {
							filled = false
							break
						}
					}
					if filled {
						break
					}
					continue
				}
				s := w.open.Pop()
				if s == nil {
					break
				}
				transfer(target, s)
				w.stats.StatesShared++
			}
		}
	}
}

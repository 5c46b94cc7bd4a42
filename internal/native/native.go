// Package native is the shared-memory parallel engine: N workers — one
// goroutine each, pinned to real cores by the Go scheduler — search the §3.1
// state space cooperatively and return the same proven-optimal (or
// ε-bounded) result as the serial A*.
//
// Where internal/parallel reproduces the paper's bulk-synchronous Paragon
// algorithm and reports *modeled* speedup, this engine is built the way the
// modern literature says a shared-memory optimal task scheduler should be
// (Orr & Sinnen 2019; Akram, Maas & Sanders 2024):
//
//   - every worker owns a private expander (core.Arena + scratch) and a
//     private OPEN priority queue, so the expansion hot path stays
//     allocation-free and lock-free;
//   - duplicate detection is global, through one striped-lock sharded
//     generalization of the open-addressed visited table
//     (core.SharedVisited) — a partial schedule generated by any worker is
//     expanded at most once machine-wide;
//   - an idle worker steals frontier states straight out of a victim's OPEN
//     queue (each queue doubles as the worker's steal deque: the owner pushes
//     and pops under its own mutex, thieves pop under the same mutex), so
//     load balances without a coordinator;
//   - any complete schedule becomes the shared incumbent through one atomic
//     bound, so a goal found by one worker immediately tightens pruning in
//     every other worker's expander.
//
// # Termination and the optimality certificate
//
// The engine stops with a *proof*, not a heuristic quiescence guess, via a
// global f-min/idle consensus. Every worker publishes two atomic words: the
// minimum f of its queue, and the f floor of the state it is currently
// expanding (set before the state leaves a queue, cleared only after all its
// children are pushed, so every live subtree is covered by an ancestor's
// admissible f at every instant). The global lower bound LB is the minimum
// over all published words; once incumbent ≤ (1+ε)·LB the incumbent is
// proven (1+ε)-admissible — proven optimal when ε = 0 or when LB has reached
// the incumbent itself. Exhaustion is detected by idle consensus: a worker
// that finds its queue empty and every steal attempt dry goes idle, and when
// all N workers are idle at once no expansion is in flight and no queue can
// refill, so the space is exhausted and the incumbent is optimal. The result
// therefore honours the registry-wide contract Optimal ⇔ BoundFactor == 1.
//
// Arena ownership under work stealing: a stolen state is expanded on the
// thief's expander, so its children live in the thief's arena while the
// parent chain crosses into the victim's — safe because every arena lives
// until the solve returns and states are immutable once published (pushed to
// a queue or inserted in the visited table, both of which order the writes).
package native

import (
	"cmp"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Options configures a native solve: the shared search settings (every
// worker polls Stop before each expansion with the machine-wide total, and
// publishes its own Stats into Progress there) plus the worker count and
// the per-worker tracers. The shared Tracer is ignored: the workers run
// concurrently, so each gets its own from TracerFor.
type Options struct {
	core.Options
	// Workers is the number of search workers; < 1 selects GOMAXPROCS, and
	// values above maxWorkers (256) are clamped.
	Workers int
	// TracerFor, when non-nil, supplies one core.Tracer per worker.
	TracerFor func(worker int) core.Tracer
}

// noWork is the published lower-bound word of a worker with nothing queued
// and nothing in flight.
const noWork = int32(math.MaxInt32)

// maxWorkers caps Options.Workers. The knob is reachable from the network
// job API, and each worker is a goroutine with its own queue, expander, and
// arena — the cap turns a hostile "workers": 1e6 into a harmless clamp
// while staying far above any real core count (and above the deliberate
// oversubscription the speedup experiment runs on small hosts).
const maxWorkers = 256

// activeWorkers counts live worker goroutines across every native solve in
// the process — a test gauge proving that cancellation joins every worker.
var activeWorkers atomic.Int64

// ActiveWorkers reports the number of live native worker goroutines.
func ActiveWorkers() int64 { return activeWorkers.Load() }

// worker is one search goroutine: a private OPEN queue (doubling as the
// steal target), a private expander/arena, and the two published atomic
// lower-bound words of the termination consensus.
type worker struct {
	id    int
	s     *solver
	exp   *core.Expander
	stats core.Stats

	mu      sync.Mutex // guards open and the qmin refresh
	open    core.Queue
	qmin    atomic.Int32 // min f of open (noWork when empty)
	infl    atomic.Int32 // f floor of the in-flight expansion (noWork when none)
	maxOpen int

	meter   *core.Meter // nil without a Progress
	openLen int         // open's size when the worker last took from it
}

// solver is the shared state of one native solve.
type solver struct {
	m       *core.Model
	opt     Options
	workers []*worker
	visited *core.SharedVisited

	bound    atomic.Int32 // incumbent f (0 = no incumbent yet)
	incMu    sync.Mutex
	incumbnt *core.State

	expanded  atomic.Int64 // machine-wide expansions, the Stop cadence
	idle      atomic.Int32 // workers currently idle
	done      atomic.Bool
	cutOff    atomic.Bool // Stop fired before a proof
	proved    atomic.Bool // terminated with a certificate
	approxCut atomic.Bool // some state with f < incumbent was discarded (ε only)
}

// Search runs the work-stealing parallel A*/Aε* over the shared state space
// under the upper bound s.UB, with the same outcome contract as the serial
// engine.
func Search(m *core.Model, opt Options, s core.Start) core.Outcome {
	sv := newSolver(m, opt, s.UB)
	sv.run()
	return sv.outcome()
}

// newSolver builds the workers, the sharded visited table, and the seed
// queue; it is split from Search so white-box tests can observe the arenas
// and workers of a finished solve.
func newSolver(m *core.Model, opt Options, ub int32) *solver {
	if opt.Workers < 1 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.Workers > maxWorkers {
		opt.Workers = maxWorkers
	}
	opt.Tracer = nil // see Options
	sv := &solver{
		m:       m,
		opt:     opt,
		workers: make([]*worker, opt.Workers),
		visited: core.NewSharedVisited(0),
	}
	for i := range sv.workers {
		w := &worker{id: i, s: sv, open: core.NewQueue(opt.Options)}
		w.qmin.Store(noWork)
		w.infl.Store(noWork)
		w.exp = m.NewExpander(opt.Options, &w.stats)
		w.exp.UB = ub
		w.exp.Bound = func() int32 { return sv.bound.Load() }
		if opt.TracerFor != nil {
			w.exp.Tracer = opt.TracerFor(i)
		}
		w.meter = opt.Progress.Meter()
		sv.workers[i] = w
	}
	// Seed: the root state in worker 0's queue; everyone else steals their
	// way into the frontier.
	w0 := sv.workers[0]
	w0.open.Push(core.Root())
	w0.refreshQMin()
	return sv
}

// run starts the workers and blocks until every one has exited.
func (s *solver) run() {
	var wg sync.WaitGroup
	for _, w := range s.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			activeWorkers.Add(1)
			defer activeWorkers.Add(-1)
			w.run()
		}(w)
	}
	wg.Wait()
}

// outcome merges the workers' Stats after every worker has joined.
// approxCut records that some state whose f was below the incumbent was
// discarded under the ε margin; without it the space was exhausted (or LB
// reached the incumbent) and the outcome is exactly optimal.
func (s *solver) outcome() core.Outcome {
	var stats core.Stats
	for _, w := range s.workers {
		w.stats.MaxOpen = w.maxOpen
		stats.Add(&w.stats)
	}
	stats.VisitedSize = s.visited.Len()
	stats.UpperBound = s.workers[0].exp.UB
	stats.StaticLB = s.m.StaticLowerBound()

	out := core.Outcome{
		Proved: s.proved.Load() && !s.cutOff.Load(),
		Exact:  !s.approxCut.Load(),
		Stats:  stats,
	}
	if s.incumbnt != nil {
		out.Best = s.m.ScheduleOf(s.incumbnt)
	}
	return out
}

// offerIncumbent installs c as the shared incumbent when it improves on the
// current one, tightening every worker's pruning bound at once.
func (s *solver) offerIncumbent(c *core.State) {
	s.incMu.Lock()
	if s.incumbnt == nil || c.F() < s.incumbnt.F() {
		s.incumbnt = c
		s.bound.Store(c.F())
	}
	s.incMu.Unlock()
}

// globalLB is the termination consensus read: the minimum admissible f over
// every queued state and every in-flight expansion. noWork means no live
// work exists anywhere.
func (s *solver) globalLB() int32 {
	lb := noWork
	for _, w := range s.workers {
		if q := w.qmin.Load(); q < lb {
			lb = q
		}
		if f := w.infl.Load(); f < lb {
			lb = f
		}
	}
	return lb
}

// anyQueued reports whether any worker's queue holds a state.
func (s *solver) anyQueued() bool {
	for _, w := range s.workers {
		if w.qmin.Load() != noWork {
			return true
		}
	}
	return false
}

// checkProof stops the search with a certificate once the incumbent is
// within the proven margin of the global lower bound.
func (s *solver) checkProof() {
	b := s.bound.Load()
	if b == 0 {
		return
	}
	lb := s.globalLB()
	if float64(b) <= (1+s.opt.Epsilon)*float64(lb) {
		if lb < b {
			// Live states cheaper than the incumbent are being abandoned:
			// the certificate is the ε bound, not exact optimality.
			s.approxCut.Store(true)
		}
		s.proved.Store(true)
		s.done.Store(true)
	}
}

// refreshQMin republishes the queue's minimum f; the caller holds w.mu.
func (w *worker) refreshQMin() {
	if f, ok := w.open.MinF(); ok {
		w.qmin.Store(f)
	} else {
		w.qmin.Store(noWork)
	}
}

// takeLocked removes the next state from w's queue on behalf of thief,
// publishing the thief's in-flight floor BEFORE the state leaves the queue
// so the termination consensus never observes the subtree uncovered. The
// caller holds w.mu; returns nil when the queue is empty.
func (w *worker) takeLocked(thief *worker) *core.State {
	f, ok := w.open.MinF()
	if !ok {
		return nil
	}
	// The queue's min f lower-bounds whichever state Pop returns (the FOCAL
	// queue pops by depth, not by f), so it is an admissible in-flight floor.
	thief.infl.Store(f)
	st := w.open.Pop()
	w.refreshQMin()
	return st
}

// push queues a child generated by w's own expansion.
func (w *worker) push(c *core.State) {
	w.mu.Lock()
	w.open.Push(c)
	if n := w.open.Len(); n > w.maxOpen {
		w.maxOpen = n
	}
	w.refreshQMin()
	w.mu.Unlock()
}

// emit receives every non-pruned child of w's current expansion: goals
// become incumbent candidates, duplicates go back to the arena, and new
// states join w's queue.
func (w *worker) emit(c *core.State) {
	if c.Complete(w.s.m) {
		w.s.offerIncumbent(c)
		return
	}
	if !w.s.visited.Add(c) {
		w.stats.Duplicates++
		// Dead on arrival: hand the slot straight back, as the serial
		// expander does for its own visited rejections.
		w.exp.Arena().Recycle(c)
		return
	}
	w.push(c)
}

// next returns the next state to expand — from w's own queue, else stolen —
// or nil when the search has terminated. It owns the idle consensus: when
// every worker is parked here at once, the space is exhausted.
func (w *worker) next() *core.State {
	s := w.s
	for {
		if s.done.Load() {
			return nil
		}
		w.mu.Lock()
		st := w.takeLocked(w)
		w.openLen = w.open.Len()
		w.mu.Unlock()
		if st != nil {
			return st
		}
		if st := w.steal(); st != nil {
			return st
		}
		// Nothing anywhere: park. The last worker to park proves exhaustion
		// (no expansion is in flight, and only an expansion can refill a
		// queue), so the incumbent — if any — is optimal.
		n := s.idle.Add(1)
		if int(n) == len(s.workers) && !s.anyQueued() {
			s.proved.Store(true)
			s.done.Store(true)
		}
		spins := 0
		for !s.done.Load() && !s.anyQueued() {
			if int(s.idle.Load()) == len(s.workers) && !s.anyQueued() {
				s.proved.Store(true)
				s.done.Store(true)
				break
			}
			// Keep cancellation responsive even when this worker is starved.
			if s.opt.Stop != nil && s.opt.Stop(s.expanded.Load()) {
				s.cutOff.Store(true)
				s.done.Store(true)
				break
			}
			if spins++; spins < 8 {
				runtime.Gosched()
			} else {
				time.Sleep(50 * time.Microsecond)
			}
		}
		s.idle.Add(-1)
	}
}

// steal scans the other workers (starting just past w's own id, so thieves
// spread) and takes the best state of the first non-empty queue it finds.
func (w *worker) steal() *core.State {
	s := w.s
	n := len(s.workers)
	for off := 1; off < n; off++ {
		v := s.workers[(w.id+off)%n]
		if v.qmin.Load() == noWork {
			continue // cheap pre-check without the victim's lock
		}
		v.mu.Lock()
		st := v.takeLocked(w)
		v.mu.Unlock()
		if st != nil {
			w.stats.StatesShared++
			return st
		}
	}
	return nil
}

// publish hands the worker's Stats to the Progress with its own OPEN size,
// the shared incumbent (U before the first) and the consensus lower bound.
func (w *worker) publish() {
	inc := cmp.Or(w.s.bound.Load(), w.exp.UB)
	floor := w.s.globalLB()
	if floor == noWork {
		floor = 0
	}
	w.meter.Publish(&w.stats, w.openLen, inc, floor)
}

// run is the worker loop: take, prune against the shared bound, expand,
// re-check the certificate.
func (w *worker) run() {
	s := w.s
	if w.meter != nil {
		defer func() {
			w.mu.Lock()
			w.openLen = w.open.Len()
			w.mu.Unlock()
			w.publish()
		}()
	}
	for {
		st := w.next()
		if st == nil {
			return
		}
		// Prune at pop: once the incumbent is within the margin of this
		// state's f, its subtree cannot improve the guarantee.
		if b := s.bound.Load(); b > 0 && float64(b) <= (1+s.opt.Epsilon)*float64(st.F()) {
			if st.F() < b {
				s.approxCut.Store(true)
			}
			w.infl.Store(noWork)
			s.checkProof()
			continue
		}
		if w.meter != nil {
			w.publish()
		}
		if s.opt.Stop != nil && s.opt.Stop(s.expanded.Load()) {
			w.infl.Store(noWork)
			s.cutOff.Store(true)
			s.done.Store(true)
			return
		}
		s.expanded.Add(1)
		w.exp.Expand(st, nil, w.emit)
		// Clear the in-flight floor only now: every child is queued, so the
		// consensus hand-over is seamless.
		w.infl.Store(noWork)
		s.checkProof()
	}
}

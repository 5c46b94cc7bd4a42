package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/procgraph"
	"repro/internal/taskgraph"
)

// The traced run replays core.SolveModel's loop here, through the search
// layer's public API, and times every call into it from outside. The
// replica must run the same search as engine.Solve — replica_test.go and
// the traced run itself compare Expanded, Length, Optimal and BoundFactor
// — so that the per-layer numbers describe the search the end-to-end
// numbers measured.

// openBuckets are the OPEN-list sizes that split core.expand_ns_mean, to
// show whether the cost of one expansion grows with the search. Every
// workload's searches reach the last bucket.
var openBuckets = []struct {
	suffix string
	below  int
}{
	{"open_lt_1k", 1 << 10},
	{"open_1k_4k", 1 << 12},
	{"open_ge_4k", int(^uint(0) >> 1)},
}

// span is one timed stage of a traced solve, in the wire form the -spans
// file carries. Start and End are nanoseconds since the run began.
type span struct {
	Name   string            `json:"name"`
	Parent string            `json:"parent,omitempty"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// searchLayers aggregates the traced solves of one run.
type searchLayers struct {
	Expand     hist   `json:"expand"`
	ExpandOpen []hist `json:"expand_by_open"`
	Push       hist   `json:"push"`
	Pop        hist   `json:"pop"`

	// Per-solve phase durations in microseconds.
	modelUS, boundUS, searchUS, scheduleUS, validateUS, totalUS []float64

	maxOpen, visited, bytesPerState []float64
	expanded, generated, duplicates int64
	prunedEquiv, prunedFTO          int64
	prunedBound                     int64
	solves, proved                  int

	// tracedNS and untracedNS time the same solves with and without
	// tracing, for obs.trace_overhead_frac.
	tracedNS, untracedNS int64

	spans []span
	epoch time.Time
}

func newSearchLayers(epoch time.Time) *searchLayers {
	return &searchLayers{ExpandOpen: make([]hist, len(openBuckets)), epoch: epoch}
}

func (l *searchLayers) since(t time.Time) int64 { return int64(t.Sub(l.epoch)) }

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	return heapBytes()
}

// coreOptions mirrors what the astar and aeps registry engines hand to
// core.SolveModel for cfg.
func coreOptions(engineName string, cfg engine.Config) (core.Options, error) {
	opt := core.Options{Disable: cfg.Disable, Epsilon: cfg.Epsilon, HFunc: cfg.HFunc, UpperBound: cfg.UpperBound}
	switch engineName {
	case "astar":
		opt.Epsilon = 0
	case "aeps":
		if opt.Epsilon <= 0 {
			opt.Epsilon = 0.2
		}
	default:
		return opt, fmt.Errorf("traced replay covers astar and aeps, not %q", engineName)
	}
	if limit := cfg.MaxExpanded; limit > 0 {
		opt.Stop = func(expanded int64) bool { return expanded >= limit }
	}
	return opt, nil
}

// tracedSolve solves one instance the way engine.Solve(engineName) does,
// timing model build, upper bound, every Expand/Push/Pop/MinF call, schedule
// reconstruction and validation, and folds the timings into l. label names
// the solve in its spans.
func tracedSolve(l *searchLayers, label, engineName string, g *taskgraph.Graph, sys *procgraph.System, cfg engine.Config) (*core.Result, error) {
	opt, err := coreOptions(engineName, cfg)
	if err != nil {
		return nil, err
	}
	// core.heap_bytes_per_state: a forced collection before and after the
	// search costs milliseconds, so only every 16th solve (with at least
	// 1,024 states) pays it, outside every timed span.
	var heapBefore uint64
	weigh := l.solves%16 == 0
	if weigh {
		heapBefore = liveHeap()
	}

	t0 := time.Now()
	m, err := core.NewModel(g, sys)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	ub, fallback, err := core.ResolveUpperBound(m, opt)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()

	var stats core.Stats
	stats.StaticLB = m.StaticLowerBound()
	stats.UpperBound = ub
	exp := m.NewExpander(opt, &stats)
	exp.UB = ub
	var goalBest *core.State
	exp.Bound = func() int32 {
		if goalBest == nil {
			return 0
		}
		return goalBest.F()
	}
	open := core.NewQueue(opt)
	visited := core.NewVisited()

	// Push runs inside Expand (through emit), so Expand's self time is its
	// duration minus the pushes it made.
	var pushed time.Duration
	emit := func(c *core.State) {
		if c.Complete(m) {
			if goalBest == nil || c.F() < goalBest.F() {
				goalBest = c
			}
			return
		}
		p0 := time.Now()
		open.Push(c)
		d := time.Since(p0)
		pushed += d
		l.Push.add(d)
	}
	expand := func(s *core.State) {
		bucket := 0
		for open.Len() >= openBuckets[bucket].below {
			bucket++
		}
		pushed = 0
		e0 := time.Now()
		exp.Expand(s, visited, emit)
		self := time.Since(e0) - pushed
		l.Expand.add(self)
		l.ExpandOpen[bucket].add(self)
	}

	expand(core.Root())
	proved, cutOff := false, false
	for {
		if open.Len() > stats.MaxOpen {
			stats.MaxOpen = open.Len()
		}
		p0 := time.Now()
		fmin, ok := open.MinF()
		if !ok {
			l.Pop.add(time.Since(p0))
			proved = true
			break
		}
		if goalBest != nil && float64(goalBest.F()) <= (1+opt.Epsilon)*float64(fmin) {
			l.Pop.add(time.Since(p0))
			proved = true
			break
		}
		if opt.Stop != nil && opt.Stop(stats.Expanded) {
			l.Pop.add(time.Since(p0))
			cutOff = true
			break
		}
		s := open.Pop()
		l.Pop.add(time.Since(p0))
		expand(s)
	}
	stats.VisitedSize = visited.Len()
	t3 := time.Now()

	res := &core.Result{Stats: stats}
	t4 := t3
	if goalBest != nil {
		res.Schedule = m.ScheduleOf(goalBest)
		t4 = time.Now()
		res.Length = goalBest.F()
		if proved && !cutOff {
			fmin, ok := open.MinF()
			res.Optimal = opt.Epsilon == 0 || !ok || goalBest.F() <= fmin
			if res.Optimal {
				res.BoundFactor = 1
			} else {
				res.BoundFactor = 1 + opt.Epsilon
			}
		}
	} else {
		res.Schedule = fallback
		res.Length = fallback.Length
	}
	verr := res.Schedule.Validate()
	t5 := time.Now()
	res.Stats.WallTime = t4.Sub(t0)

	// The states are still reachable through open and visited here; the
	// collections run after the last timestamp, outside every span.
	if weigh && visited.Len() >= 1024 {
		if after := liveHeap(); after > heapBefore {
			l.bytesPerState = append(l.bytesPerState, float64(after-heapBefore)/float64(visited.Len()))
		}
	}
	runtime.KeepAlive(open)
	runtime.KeepAlive(visited)

	l.solves++
	if res.BoundFactor > 0 {
		l.proved++
	}
	us := func(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Microsecond) }
	l.modelUS = append(l.modelUS, us(t0, t1))
	l.boundUS = append(l.boundUS, us(t1, t2))
	l.searchUS = append(l.searchUS, us(t2, t3))
	if goalBest != nil { // a cut-off search without a goal returns the list schedule as is
		l.scheduleUS = append(l.scheduleUS, us(t3, t4))
	}
	l.validateUS = append(l.validateUS, us(t4, t5))
	l.totalUS = append(l.totalUS, us(t0, t5))
	l.tracedNS += int64(t4.Sub(t0))
	l.maxOpen = append(l.maxOpen, float64(stats.MaxOpen))
	l.visited = append(l.visited, float64(stats.VisitedSize))
	l.expanded += stats.Expanded
	l.generated += stats.Generated
	l.duplicates += stats.Duplicates
	l.prunedEquiv += stats.PrunedEquiv
	l.prunedFTO += stats.PrunedFTO
	l.prunedBound += stats.PrunedUB + stats.PrunedBound

	attrs := map[string]string{
		"instance": label, "engine": engineName,
		"expanded": fmt.Sprint(stats.Expanded), "max_open": fmt.Sprint(stats.MaxOpen),
		"length": fmt.Sprint(res.Length), "bound_factor": fmt.Sprint(res.BoundFactor),
	}
	l.spans = append(l.spans,
		span{Name: "solve", Start: l.since(t0), End: l.since(t5), Attrs: attrs},
		span{Name: "model", Parent: "solve", Start: l.since(t0), End: l.since(t1)},
		span{Name: "upper_bound", Parent: "solve", Start: l.since(t1), End: l.since(t2)},
		span{Name: "search", Parent: "solve", Start: l.since(t2), End: l.since(t3)},
		span{Name: "schedule_of", Parent: "solve", Start: l.since(t3), End: l.since(t4)},
		span{Name: "validate", Parent: "solve", Start: l.since(t4), End: l.since(t5)},
	)
	if verr != nil {
		return res, fmt.Errorf("traced %s: schedule invalid: %w", label, verr)
	}
	return res, nil
}

// sameSearch reports how a traced result differs from the engine's, or ""
// when they describe the same search.
func sameSearch(want, got *core.Result) string {
	if want.Stats.Expanded != got.Stats.Expanded || want.Length != got.Length ||
		want.Optimal != got.Optimal || want.BoundFactor != got.BoundFactor {
		return fmt.Sprintf("engine expanded=%d length=%d optimal=%v bound=%g, traced replay expanded=%d length=%d optimal=%v bound=%g",
			want.Stats.Expanded, want.Length, want.Optimal, want.BoundFactor,
			got.Stats.Expanded, got.Length, got.Optimal, got.BoundFactor)
	}
	return ""
}

// metrics renders the per-layer search metrics; see README.md for the
// end-to-end metric each should move.
func (l *searchLayers) metrics(m metricSet) {
	m.add("core.expand_ns_mean", l.Expand.meanNS(), "ns")
	for i, b := range openBuckets {
		m.add("core.expand_ns_mean."+b.suffix, l.ExpandOpen[i].meanNS(), "ns")
	}
	m.add("core.queue_push_ns_mean", l.Push.meanNS(), "ns")
	m.add("core.queue_pop_ns_mean", l.Pop.meanNS(), "ns")
	m.add("core.max_open_p90", quantile(l.maxOpen, 0.9), "count")
	m.add("core.visited_size_p90", quantile(l.visited, 0.9), "count")
	m.add("core.duplicate_frac", ratio(float64(l.duplicates), float64(l.generated)), "frac")
	m.add("core.heap_bytes_per_state", quantile(l.bytesPerState, 0.5), "B")
	// Counts are per solve: a run lasts a fixed time, so its totals would
	// grow with the speed of the code.
	perSolve := func(n int64) float64 { return ratio(float64(n), float64(l.solves)) }
	m.add("core.expanded_per_solve", perSolve(l.expanded), "count")
	m.add("core.generated_per_expanded", ratio(float64(l.generated), float64(l.expanded)), "ratio")
	m.add("core.pruned_equiv_per_solve", perSolve(l.prunedEquiv), "count")
	m.add("core.pruned_fto_per_solve", perSolve(l.prunedFTO), "count")
	m.add("core.pruned_bound_per_solve", perSolve(l.prunedBound), "count")
	m.add("core.model_build_us_p50", quantile(l.modelUS, 0.5), "us")
	m.add("listsched.upper_bound_us_p50", quantile(l.boundUS, 0.5), "us")
	m.add("core.schedule_of_us_p50", quantile(l.scheduleUS, 0.5), "us")
	m.add("schedule.validate_us_p50", quantile(l.validateUS, 0.5), "us")
	var search, total float64
	for i := range l.searchUS {
		search += l.searchUS[i]
		total += l.totalUS[i]
	}
	m.add("engine.search_share", ratio(search, total), "frac")
	m.add("engine.proved_frac", ratio(float64(l.proved), float64(l.solves)), "frac")
}

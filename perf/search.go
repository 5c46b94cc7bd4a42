package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/procgraph"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

// searchSpec is one search workload: a corpus of §4.1 random graphs, one
// registry engine and its budget, run in a closed loop by one client.
type searchSpec struct {
	name    string
	engine  string
	epsilon float64
	sizes   []int
	ccrs    []float64
	perCell int
	// maxExpanded caps every solve. It bounds the slowest solve to tens of
	// milliseconds, so a run holds about a thousand solves and its
	// percentiles and means vary little from one seed's corpus to the next.
	maxExpanded int64
}

var (
	paperExact = searchSpec{
		name: "paper-exact", engine: "astar",
		sizes: []int{10, 12, 14}, ccrs: gen.PaperCCRs(), perCell: 160,
		maxExpanded: 5_000,
	}
	paperApprox = searchSpec{
		name: "paper-approx", engine: "aeps", epsilon: 0.2,
		sizes: []int{16, 20, 24}, ccrs: gen.PaperCCRs(), perCell: 160,
		maxExpanded: 5_000,
	}
)

func (sp searchSpec) config() engine.Config {
	return engine.Config{HFunc: core.HLoad, Epsilon: sp.epsilon, MaxExpanded: sp.maxExpanded}
}

// instance is one corpus entry: a task graph on its processor system.
type instance struct {
	label string
	g     *taskgraph.Graph
	sys   *procgraph.System
}

// corpus generates the workload's instances from seed, cells interleaved
// (size-major, then CCR) so that any prefix of the corpus — the part a run
// reaches — holds every cell in equal measure.
func (sp searchSpec) corpus(seed uint64) ([]instance, error) {
	out := make([]instance, 0, sp.perCell*len(sp.sizes)*len(sp.ccrs))
	for k := 0; k < sp.perCell; k++ {
		for _, v := range sp.sizes {
			for ci, ccr := range sp.ccrs {
				name := fmt.Sprintf("%s-v%d-ccr%g-%d", sp.name, v, ccr, k)
				g, err := gen.Random(gen.RandomConfig{
					V: v, CCR: ccr, Name: name,
					Seed: deriveSeed(seed, uint64(v), uint64(ci), uint64(k)),
				})
				if err != nil {
					return nil, err
				}
				out = append(out, instance{label: name, g: g, sys: procgraph.Complete(v)})
			}
		}
	}
	return out, nil
}

// corpusDigest fingerprints the instances — each graph's JSON form and its
// system's name — so any change to what the generators produce shows.
func corpusDigest(in []instance) (string, error) {
	h := fnv.New64a()
	for _, x := range in {
		data, err := json.Marshal(x.g)
		if err != nil {
			return "", err
		}
		h.Write(data)
		fmt.Fprintf(h, "|%s|%d|", x.sys.Name(), x.sys.NumProcs())
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// lowerBound is a bound no schedule of x can beat, computed here rather
// than by the engines so that makespan_ratio measures schedules against a
// fixed yardstick: the longest chain of computation, and the total work
// spread over every PE (the workloads' systems are homogeneous).
func lowerBound(x instance) float64 {
	p := int64(x.sys.NumProcs())
	return float64(max(int64(x.g.ComputationBound()), (x.g.TotalWork()+p-1)/p))
}

// checkSearch returns why res is not a correct answer for x, or "".
// known is the golden optimum of x (0 when unknown).
func checkSearch(x instance, res *core.Result, eps float64, known int32) string {
	if res.Schedule == nil {
		return fmt.Sprintf("%s: no schedule", x.label)
	}
	if err := res.Schedule.Validate(); err != nil {
		return fmt.Sprintf("%s: invalid schedule: %v", x.label, err)
	}
	return checkLength(x.label, res.Schedule, res.Length, res.Optimal, res.BoundFactor, res.Stats.UpperBound, eps, known)
}

// checkLength checks a validated schedule against what its solve claimed.
func checkLength(label string, s *schedule.Schedule, length int32, optimal bool, bound float64, upper int32, eps float64, known int32) string {
	switch {
	case s.Length != length:
		return fmt.Sprintf("%s: reported length %d, schedule length %d", label, length, s.Length)
	case upper > 0 && length > upper:
		return fmt.Sprintf("%s: length %d exceeds the list-scheduling bound %d", label, length, upper)
	case optimal && bound != 1:
		return fmt.Sprintf("%s: optimal with bound factor %g", label, bound)
	case bound != 0 && bound != 1 && bound != 1+eps:
		return fmt.Sprintf("%s: bound factor %g, want 0, 1 or %g", label, bound, 1+eps)
	case known > 0 && length < known:
		return fmt.Sprintf("%s: length %d below the golden optimum %d", label, length, known)
	case known > 0 && optimal && length != known:
		return fmt.Sprintf("%s: proved length %d, golden optimum %d", label, length, known)
	case known > 0 && bound > 0 && float64(length) > bound*float64(known):
		return fmt.Sprintf("%s: length %d breaks its %g guarantee on the golden optimum %d", label, length, bound, known)
	}
	return ""
}

// runSearch runs a search workload: set up (generate the corpus and check
// it against the golden file) several times, then solve the corpus in a
// closed loop with one client until the run time is spent.
func runSearch(sp searchSpec, o runOptions) *result {
	r := newResult(sp.name)
	r.HostProbeMS = startMeasuring(o.warmup())
	var corpus []instance
	for i := 0; i < setupsPerRun; i++ {
		runtime.GC()
		t0 := time.Now()
		c, err := sp.corpus(o.seed)
		if err != nil {
			r.fail("corpus: %v", err)
			return r
		}
		msg := o.golden.checkCorpus(sp.name, c)
		r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
		corpus = c
		if msg != "" {
			r.fail("%s", msg)
		}
	}
	optima := o.golden.optima(sp.name)
	cfg := sp.config()

	var layers *searchLayers
	if o.trace {
		layers = newSearchLayers(time.Now())
	}
	var lats []float64
	var solveTime time.Duration
	var ratioSum float64
	runtime.GC()
	allocs := allocBytes()
	deadline := time.Now().Add(o.duration() - o.warmup())
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		x := corpus[i%len(corpus)]
		r.Attempted++
		t0 := time.Now()
		res, err := engine.Solve(context.Background(), sp.engine, x.g, x.sys, cfg)
		d := time.Since(t0)
		if err != nil {
			r.Failed++
			r.fail("%s: %v", x.label, err)
			continue
		}
		if msg := checkSearch(x, res, sp.epsilon, optima[i%len(corpus)]); msg != "" {
			r.Failed++
			r.fail("%s", msg)
			continue
		}
		lats = append(lats, ms(d))
		solveTime += d
		ratioSum += float64(res.Length) / lowerBound(x)
		if layers != nil {
			layers.untracedNS += int64(d)
			traced, err := tracedSolve(layers, x.label, sp.engine, x.g, x.sys, cfg)
			if err != nil {
				r.fail("%v", err)
			} else if msg := sameSearch(res, traced); msg != "" {
				r.fail("%s: traced replay diverged: %s", x.label, msg)
			}
		}
	}
	allocated := kibPer(allocs, len(lats))

	if layers != nil {
		layers.metrics(r.Metrics)
		r.Metrics.add("obs.trace_overhead_frac", ratio(float64(layers.tracedNS), float64(layers.untracedNS))-1, "frac")
		serveLayerZeros(r.Metrics)
		r.spans = layers.spans
		r.Layers = layers
		return r
	}
	r.Metrics.add("latency_ms_p50", quantile(lats, 0.5), "ms")
	r.Metrics.add("latency_ms_p90", quantile(lats, 0.9), "ms")
	r.Metrics.add("throughput_per_s", ratio(float64(len(lats)), solveTime.Seconds()), "1/s")
	r.Metrics.add("makespan_ratio", ratio(ratioSum, float64(len(lats))), "ratio")
	r.Metrics.add("alloc_kib_per_op", allocated, "KiB")
	r.addSetup()
	return r
}

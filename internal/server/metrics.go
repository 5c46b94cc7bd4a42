package server

// The /metrics endpoint: the daemon's counters in the Prometheus text
// exposition format (hand-rolled — the repository takes no dependencies),
// so any scraper or `curl | grep` can watch jobs by state, queue depth,
// cache effectiveness, and per-engine search throughput. Counters are
// monotone: per-engine search totals accumulate finished jobs' final
// progress and add the live jobs' current snapshots on top (a finishing
// job moves from the live sum to the finished sum at the same value).
// Rates (expanded-states/sec, cache hit ratio) are left to the scraper —
// `rate(icpp98_engine_expanded_total[1m])` — with uptime exported for
// hand computation.

import (
	"fmt"
	"maps"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// histogram is a hand-rolled Prometheus fixed-bucket histogram (the
// repository takes no dependencies). Bounds are inclusive upper bounds in
// ascending order; the implicit final bucket is +Inf. Observations are a
// mutex plus a short linear scan — fine at job granularity (a handful per
// second), not meant for per-expansion events.
type histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1, the last being the +Inf overflow
	sum    float64
	count  uint64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// writeTo renders the family's _bucket/_sum/_count lines for one label
// set (labels like `cache="cold"`, or empty); buckets are cumulative per
// the exposition format. The caller writes the shared HELP/TYPE header —
// label variants of one family must stay under a single header.
func (h *histogram) writeTo(put func(format string, args ...any), name, labels string) {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, count := h.sum, h.count
	h.mu.Unlock()
	prefix := ""
	suffix := ""
	if labels != "" {
		prefix = labels + ","
		suffix = "{" + labels + "}"
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += counts[i]
		put(`%s_bucket{%sle="%s"} %d`, name, prefix, strconv.FormatFloat(b, 'g', -1, 64), cum)
	}
	cum += counts[len(h.bounds)]
	put(`%s_bucket{%sle="+Inf"} %d`, name, prefix, cum)
	put("%s_sum%s %s", name, suffix, strconv.FormatFloat(sum, 'g', -1, 64))
	put("%s_count%s %d", name, suffix, count)
}

// latencyBuckets covers the serving tier's dynamic range: sub-millisecond
// cache hits through minute-long budgeted searches.
var latencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// metrics accumulates the server-lifetime counters the store cannot
// answer after jobs are swept: submissions, completions by state, and
// per-engine search totals folded in at finish time.
type metrics struct {
	start     time.Time
	submitted atomic.Int64
	done      atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64

	mu      sync.Mutex
	engines map[string]core.ProgressSnapshot // finished jobs' summed counters

	// Latency histograms, observed once per finished job: queue wait
	// (admission → solve start), solve wall time split by schedule-cache
	// outcome (cold = a real search ran, warm = memo answer), and the
	// end-to-end latency a submitter experienced.
	queueWait *histogram
	solveCold *histogram
	solveWarm *histogram
	e2e       *histogram
}

func newMetrics() *metrics {
	return &metrics{
		start:     time.Now(),
		engines:   map[string]core.ProgressSnapshot{},
		queueWait: newHistogram(latencyBuckets),
		solveCold: newHistogram(latencyBuckets),
		solveWarm: newHistogram(latencyBuckets),
		e2e:       newHistogram(latencyBuckets),
	}
}

// engineKey labels a job's engine selection: the single engine, or the
// comma-joined portfolio (its progress aggregates across entrants, so the
// portfolio is the honest attribution unit).
func engineKey(engines []string) string { return strings.Join(engines, ",") }

// recordFinish folds a terminal job into the lifetime counters.
func (m *metrics) recordFinish(state string, j *job) {
	switch state {
	case StateDone:
		m.done.Add(1)
	case StateFailed:
		m.failed.Add(1)
	case StateCancelled:
		m.cancelled.Add(1)
	}
	// The lifecycle timestamps are stable once finish returned a terminal
	// state, so these reads need no lock.
	if !j.finished.IsZero() {
		m.e2e.observe(j.finished.Sub(j.created).Seconds())
		if !j.started.IsZero() {
			m.queueWait.observe(j.started.Sub(j.created).Seconds())
			solve := j.finished.Sub(j.started).Seconds()
			if j.cacheNote == "hit" {
				m.solveWarm.observe(solve)
			} else {
				m.solveCold.observe(solve)
			}
		}
	}
	p := j.progress.Snapshot()
	key := engineKey(j.engines)
	m.mu.Lock()
	m.engines[key] = m.engines[key].AddCounters(p)
	m.mu.Unlock()
}

// engineSnapshot returns the per-engine totals: finished accumulations
// plus the live jobs' current progress.
func (m *metrics) engineSnapshot(live []*job) map[string]core.ProgressSnapshot {
	m.mu.Lock()
	out := maps.Clone(m.engines)
	m.mu.Unlock()
	for _, j := range live {
		key := engineKey(j.engines)
		out[key] = out[key].AddCounters(j.progress.Snapshot())
	}
	return out
}

// handleMetrics renders the Prometheus text form. Every line is written
// into one buffer and served whole, so a scrape never sees a half-updated
// family.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	put := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	states := s.store.stateCounts()
	put("# HELP icpp98_jobs Retained jobs by state.")
	put("# TYPE icpp98_jobs gauge")
	for _, state := range []string{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		put(`icpp98_jobs{state=%q} %d`, state, states[state])
	}
	put("# HELP icpp98_queue_depth Jobs admitted but not yet running.")
	put("# TYPE icpp98_queue_depth gauge")
	put("icpp98_queue_depth %d", states[StateQueued])

	put("# HELP icpp98_jobs_submitted_total Jobs admitted since start.")
	put("# TYPE icpp98_jobs_submitted_total counter")
	put("icpp98_jobs_submitted_total %d", s.metrics.submitted.Load())
	put("# HELP icpp98_jobs_finished_total Jobs finished since start, by terminal state.")
	put("# TYPE icpp98_jobs_finished_total counter")
	put(`icpp98_jobs_finished_total{state="done"} %d`, s.metrics.done.Load())
	put(`icpp98_jobs_finished_total{state="failed"} %d`, s.metrics.failed.Load())
	put(`icpp98_jobs_finished_total{state="cancelled"} %d`, s.metrics.cancelled.Load())

	ps := s.pool.Stats()
	put("# HELP icpp98_pool_inflight Solves currently executing on the local pool.")
	put("# TYPE icpp98_pool_inflight gauge")
	put("icpp98_pool_inflight %d", s.pool.InFlight())
	put("# HELP icpp98_models_built_total Distinct instance models compiled.")
	put("# TYPE icpp98_models_built_total counter")
	put("icpp98_models_built_total %d", ps.ModelsBuilt)
	put("# HELP icpp98_model_hits_total Solves served a memoized model.")
	put("# TYPE icpp98_model_hits_total counter")
	put("icpp98_model_hits_total %d", ps.ModelHits)

	cs := s.cache.Stats()
	put("# HELP icpp98_cache_hits_total Schedule-cache lookups answered from the memo.")
	put("# TYPE icpp98_cache_hits_total counter")
	put("icpp98_cache_hits_total %d", cs.Hits)
	put("# HELP icpp98_cache_misses_total Schedule-cache lookups that had to solve.")
	put("# TYPE icpp98_cache_misses_total counter")
	put("icpp98_cache_misses_total %d", cs.Misses)
	put("# HELP icpp98_cache_bypass_total Submissions that asked to bypass the schedule cache.")
	put("# TYPE icpp98_cache_bypass_total counter")
	put("icpp98_cache_bypass_total %d", cs.Bypasses)
	put("# HELP icpp98_cache_entries Schedule-cache resident results.")
	put("# TYPE icpp98_cache_entries gauge")
	put("icpp98_cache_entries %d", cs.Entries)
	put("# HELP icpp98_cache_bytes Schedule-cache resident payload bytes.")
	put("# TYPE icpp98_cache_bytes gauge")
	put("icpp98_cache_bytes %d", cs.Bytes)

	live := []*job{}
	for _, j := range s.store.list() {
		if !terminal(s.store.status(j).State) {
			live = append(live, j)
		}
	}
	totals := s.metrics.engineSnapshot(live)
	keys := make([]string, 0, len(totals))
	for k := range totals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// A family with zero series is omitted entirely (no orphan TYPE
	// headers): the engine breakdown only exists once a job has run.
	if len(keys) > 0 {
		put("# HELP icpp98_engine_expanded_total Search states expanded, by engine selection.")
		put("# TYPE icpp98_engine_expanded_total counter")
		for _, k := range keys {
			put(`icpp98_engine_expanded_total{engine=%q} %d`, k, totals[k].Expanded)
		}
		put("# HELP icpp98_engine_generated_total Search states generated, by engine selection.")
		put("# TYPE icpp98_engine_generated_total counter")
		for _, k := range keys {
			put(`icpp98_engine_generated_total{engine=%q} %d`, k, totals[k].Generated)
		}
		put("# HELP icpp98_engine_pruned_equiv_total Ready nodes skipped by equivalent-task pruning, by engine selection.")
		put("# TYPE icpp98_engine_pruned_equiv_total counter")
		for _, k := range keys {
			put(`icpp98_engine_pruned_equiv_total{engine=%q} %d`, k, totals[k].PrunedEquiv)
		}
		put("# HELP icpp98_engine_pruned_fto_total Ready nodes collapsed by fixed-task-order pruning, by engine selection.")
		put("# TYPE icpp98_engine_pruned_fto_total counter")
		for _, k := range keys {
			put(`icpp98_engine_pruned_fto_total{engine=%q} %d`, k, totals[k].PrunedFTO)
		}
	}

	put("# HELP icpp98_job_queue_seconds Queue wait per finished job: admission to solve start.")
	put("# TYPE icpp98_job_queue_seconds histogram")
	s.metrics.queueWait.writeTo(put, "icpp98_job_queue_seconds", "")
	put("# HELP icpp98_job_solve_seconds Solve wall time per finished job, by schedule-cache outcome (cold = a search ran, warm = memo answer).")
	put("# TYPE icpp98_job_solve_seconds histogram")
	s.metrics.solveCold.writeTo(put, "icpp98_job_solve_seconds", `cache="cold"`)
	s.metrics.solveWarm.writeTo(put, "icpp98_job_solve_seconds", `cache="warm"`)
	put("# HELP icpp98_job_e2e_seconds End-to-end latency per finished job: admission to terminal state.")
	put("# TYPE icpp98_job_e2e_seconds histogram")
	s.metrics.e2e.writeTo(put, "icpp98_job_e2e_seconds", "")

	bi := buildInfo()
	put("# HELP repro_build_info Build identity of the running binary; the value is always 1.")
	put("# TYPE repro_build_info gauge")
	put(`repro_build_info{module=%q,version=%q,go_version=%q,revision=%q} 1`,
		bi.Module, bi.Version, bi.GoVersion, bi.Revision)

	put("# HELP icpp98_uptime_seconds Seconds since the server started.")
	put("# TYPE icpp98_uptime_seconds gauge")
	put("icpp98_uptime_seconds %.3f", time.Since(s.metrics.start).Seconds())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}

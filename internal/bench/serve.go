package bench

// The serve experiment: a load generator driving a live icpp98d daemon
// (spun up in-process on a loopback listener) at a fixed request rate
// over a mixed corpus — the first pass over the corpus is all fresh
// digests, every later request repeats one, so the steady state exercises
// the content-addressed schedule cache exactly like a production fleet
// resubmitting known instances. The report is the serving tier's SLO
// sheet: jobs/sec, cache hit rate, and p50/p99 submit→terminal latency,
// split cold (solved) vs warm (cache hit).
//
// The experiment self-gates (FailureList): every request must finish
// done, repeated digests must actually hit, warm results must be
// byte-identical to the cold solve of the same instance (modulo job ID)
// with zero engine expansions, and a cache=bypass resubmission must
// re-solve to the same schedule. cmd/icpp98bench exits non-zero on any
// violation, which is what the serve-smoke CI job runs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/taskgraph"
)

// ServeSummary is the machine-readable roll-up of one serve run.
type ServeSummary struct {
	Rate        float64 `json:"rate"`     // offered requests/sec
	Requests    int     `json:"requests"` // requests issued
	Corpus      int     `json:"corpus"`   // distinct instances
	V           int     `json:"v"`        // nodes per instance
	JobsPerSec  float64 `json:"jobs_per_sec"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	HitRate     float64 `json:"hit_rate"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	ColdP50MS   float64 `json:"cold_p50_ms"`
	WarmP50MS   float64 `json:"warm_p50_ms"`
	WarmP99MS   float64 `json:"warm_p99_ms"`
	// Per-stage latency percentiles, read from each driven job's lifecycle
	// trace (GET /v1/jobs/{id}/trace): time spent queued before the solve
	// started, and in the solve stage itself (cold jobs only — a cache hit
	// has no solve span by design). Queue p99 is the backpressure SLO the
	// run can gate on (Config.ServeQueueSLO).
	QueueP50MS float64 `json:"queue_p50_ms"`
	QueueP99MS float64 `json:"queue_p99_ms"`
	SolveP50MS float64 `json:"solve_p50_ms"`
	SolveP99MS float64 `json:"solve_p99_ms"`
}

// ServeResult reports the serve experiment.
type ServeResult struct {
	Summary  ServeSummary
	Config   Config
	Failures []string
}

// FailureList exposes the gate result to cmd/icpp98bench.
func (r *ServeResult) FailureList() []string { return r.Failures }

// serveOutcome is one request's observation.
type serveOutcome struct {
	latency  time.Duration
	state    string
	cache    string // "" | "hit" | "bypass"
	err      string
	expanded int64
	// queueMS/solveMS come from the job's lifecycle trace; solveMS is -1
	// when the trace carries no solve span (a cache hit).
	queueMS float64
	solveMS float64
}

// fetchSpanDurations reads a finished job's trace and extracts the queue
// and solve span durations; solve is -1 when absent.
func fetchSpanDurations(base, id string) (queueMS, solveMS float64, err error) {
	resp, err := http.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return 0, -1, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, -1, fmt.Errorf("trace %s: %s", id, resp.Status)
	}
	var tr server.TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return 0, -1, err
	}
	solveMS = -1
	for _, sp := range tr.Spans {
		switch sp.Name {
		case "queue":
			queueMS = sp.DurationMS
		case "solve":
			solveMS = sp.DurationMS
		}
	}
	return queueMS, solveMS, nil
}

// serveCorpus builds the distinct instances: layered DAGs (the
// repository's standard hard-but-fast workload) in both the
// zero-communication STG form and the communication-cost form, seeds
// spread so every instance digests differently.
func serveCorpus(n, v int, seed uint64) ([]*taskgraph.Graph, error) {
	out := make([]*taskgraph.Graph, 0, n)
	layers := v / 2
	if layers < 2 {
		layers = 2
	}
	for i := 0; i < n; i++ {
		lc := gen.LayeredConfig{Layers: layers, Width: 2, Seed: seed + uint64(101*i)}
		var g *taskgraph.Graph
		var err error
		if i%2 == 0 {
			g, err = gen.LayeredSTG(lc)
		} else {
			g, err = gen.Layered(lc)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

// submitBody marshals one corpus instance into its wire submission. Every
// request for one instance is byte-identical, so repeats share a digest.
func submitBody(g *taskgraph.Graph, budget int64, timeout time.Duration, cache string) ([]byte, error) {
	raw, err := json.Marshal(g)
	if err != nil {
		return nil, err
	}
	req := server.SubmitRequest{
		Graph:  raw,
		System: json.RawMessage(`"complete:4"`),
		Engine: "astar",
		Config: server.JobConfig{MaxExpanded: budget, TimeoutMS: timeout.Milliseconds(), HFunc: "load"},
		Cache:  cache,
	}
	return json.Marshal(&req)
}

// driveOne submits one request and polls until terminal, timing the whole
// submit→terminal round trip (what a client experiences).
func driveOne(base string, body []byte) serveOutcome {
	start := time.Now()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return serveOutcome{err: err.Error()}
	}
	var sub server.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || sub.ID == "" {
		return serveOutcome{err: fmt.Sprintf("submit rejected (%v)", err)}
	}
	for {
		r, err := http.Get(base + "/v1/jobs/" + sub.ID)
		if err != nil {
			return serveOutcome{err: err.Error()}
		}
		var st server.JobStatus
		err = json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if err != nil {
			return serveOutcome{err: err.Error()}
		}
		if st.State != server.StateQueued && st.State != server.StateRunning {
			out := serveOutcome{
				latency:  time.Since(start),
				state:    st.State,
				cache:    st.Cache,
				err:      st.Error,
				expanded: st.Progress.Expanded,
				solveMS:  -1,
			}
			// The per-stage breakdown rides the job's trace; a trace fetch
			// failure degrades the breakdown, not the request's outcome.
			if q, s, err := fetchSpanDurations(base, sub.ID); err == nil {
				out.queueMS, out.solveMS = q, s
			}
			return out
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fetchResult returns a finished job's normalized result (job ID cleared,
// wall clock zeroed when stripTime) for the byte-identity gate.
func fetchResult(base, id string, stripTime bool) ([]byte, error) {
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result %s: %s: %s", id, resp.Status, data)
	}
	var res server.JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	res.ID = ""
	if stripTime {
		res.Stats.WallTime = 0
	}
	return json.Marshal(&res)
}

// submitAndWait is driveOne plus the job ID, for the correctness sweep.
func submitAndWait(base string, body []byte) (string, serveOutcome) {
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", serveOutcome{err: err.Error()}
	}
	var sub server.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || sub.ID == "" {
		return "", serveOutcome{err: fmt.Sprintf("submit rejected (%v)", err)}
	}
	for {
		r, err := http.Get(base + "/v1/jobs/" + sub.ID)
		if err != nil {
			return sub.ID, serveOutcome{err: err.Error()}
		}
		var st server.JobStatus
		err = json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if err != nil {
			return sub.ID, serveOutcome{err: err.Error()}
		}
		if st.State != server.StateQueued && st.State != server.StateRunning {
			return sub.ID, serveOutcome{state: st.State, cache: st.Cache, err: st.Error, expanded: st.Progress.Expanded}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// percentile returns the p-th percentile of sorted latencies in ms.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx].Microseconds()) / 1000
}

// percentileMS is percentile over already-ms float series (span durations).
func percentileMS(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// RunServe runs the serving-tier load benchmark and its correctness gate.
func RunServe(cfg Config) *ServeResult {
	cfg = cfg.withDefaults()
	res := &ServeResult{Config: cfg}
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}

	corpus, err := serveCorpus(cfg.ServeCorpus, cfg.ServeV, cfg.Seed)
	if err != nil {
		fail("serve: corpus generation failed: %v", err)
		return res
	}
	// The bench measures the serving tier, not solver capability: cold work
	// is bounded the way a production budget would, so censored cells
	// return their (deterministic) incumbent in ~100ms instead of riding
	// out the full search — latency percentiles then reflect queueing and
	// cache behaviour, not one hard instance.
	budget := cfg.CellBudget
	if budget <= 0 || budget > 25_000 {
		budget = 25_000
	}
	bodies := make([][]byte, len(corpus))
	for i, g := range corpus {
		if bodies[i], err = submitBody(g, budget, cfg.CellTimeout, ""); err != nil {
			fail("serve: marshaling instance %d: %v", i, err)
			return res
		}
	}

	srv, err := server.Open(server.Config{})
	if err != nil {
		fail("serve: opening daemon: %v", err)
		return res
	}
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()
	base := ts.URL

	// Warm nothing: the first pass over the corpus is the cold phase by
	// construction (request i targets instance i%len(corpus)).
	total := int(cfg.ServeRate * cfg.ServeDuration.Seconds())
	if total < 2*len(corpus) {
		total = 2 * len(corpus) // at least one full warm pass
	}
	interval := time.Duration(float64(time.Second) / cfg.ServeRate)
	outcomes := make([]serveOutcome, total)
	var wg sync.WaitGroup
	start := time.Now()
	tick := time.NewTicker(interval)
	for i := 0; i < total; i++ {
		if i > 0 {
			<-tick.C
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcomes[i] = driveOne(base, bodies[i%len(bodies)])
		}(i)
	}
	tick.Stop()
	wg.Wait()
	elapsed := time.Since(start)

	// Roll up: every request must land done; split latencies by class, and
	// collect the per-stage durations each job's trace reported.
	var all, cold, warm []time.Duration
	var queueMS, solveMS []float64
	for i, o := range outcomes {
		if o.state != server.StateDone {
			fail("serve: request %d (instance %d) ended %q: %s", i, i%len(bodies), o.state, o.err)
			continue
		}
		all = append(all, o.latency)
		queueMS = append(queueMS, o.queueMS)
		if o.cache == "hit" {
			warm = append(warm, o.latency)
			if o.expanded != 0 {
				fail("serve: request %d hit the cache yet expanded %d states", i, o.expanded)
			}
			if o.solveMS >= 0 {
				fail("serve: request %d hit the cache yet its trace has a solve span", i)
			}
		} else {
			cold = append(cold, o.latency)
			if o.solveMS >= 0 {
				solveMS = append(solveMS, o.solveMS)
			}
		}
	}
	for _, s := range [][]time.Duration{all, cold, warm} {
		sort.Slice(s, func(i, k int) bool { return s[i] < s[k] })
	}
	sort.Float64s(queueMS)
	sort.Float64s(solveMS)
	if len(warm) == 0 {
		fail("serve: repeated digests never hit the schedule cache")
	}
	if len(solveMS) == 0 {
		fail("serve: no cold job's trace carried a solve span")
	}
	if slo := cfg.ServeQueueSLO; slo > 0 {
		if p99 := percentileMS(queueMS, 0.99); p99 > float64(slo.Milliseconds()) {
			fail("serve: queue-wait p99 %.1fms exceeds the %v SLO", p99, slo)
		}
	}

	// The daemon's scrape page must stay parseable under load: run the
	// exposition linter against the live /metrics.
	if resp, err := http.Get(base + "/metrics"); err != nil {
		fail("serve: scraping /metrics: %v", err)
	} else {
		page, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			fail("serve: reading /metrics: %v", rerr)
		}
		for _, p := range LintMetrics(string(page)) {
			fail("serve: /metrics lint: %s", p)
		}
	}

	// Cold-vs-warm byte identity per corpus instance: a cached answer must
	// be the solved answer, and a bypass must re-solve to the same result.
	for i := range bodies {
		warmID, o := submitAndWait(base, bodies[i])
		if o.state != server.StateDone || o.cache != "hit" {
			fail("serve: conformance resubmit of instance %d: state=%s cache=%q (%s)", i, o.state, o.cache, o.err)
			continue
		}
		warmBytes, err := fetchResult(base, warmID, false)
		if err != nil {
			fail("serve: %v", err)
			continue
		}
		bypassBody, err := submitBody(corpus[i], budget, cfg.CellTimeout, server.CacheBypass)
		if err != nil {
			fail("serve: %v", err)
			continue
		}
		bypassID, o := submitAndWait(base, bypassBody)
		if o.state != server.StateDone || o.cache != server.CacheBypass {
			fail("serve: bypass resubmit of instance %d: state=%s cache=%q (%s)", i, o.state, o.cache, o.err)
			continue
		}
		if o.expanded == 0 {
			fail("serve: bypass resubmit of instance %d expanded 0 states — it did not re-solve", i)
		}
		bypassBytes, err := fetchResult(base, bypassID, false)
		if err != nil {
			fail("serve: %v", err)
			continue
		}
		// The warm result is the memoized solve verbatim; the bypass result
		// is an independent solve, identical up to wall time.
		warmNorm, _ := fetchResult(base, warmID, true)
		bypassNorm, _ := fetchResult(base, bypassID, true)
		if !bytes.Equal(warmNorm, bypassNorm) {
			fail("serve: instance %d: cached result differs from a fresh solve:\nwarm:   %s\nbypass: %s", i, warmBytes, bypassBytes)
		}
	}

	// Cache counters from the daemon itself.
	var health server.Health
	if resp, err := http.Get(base + "/v1/healthz"); err == nil {
		json.NewDecoder(resp.Body).Decode(&health)
		resp.Body.Close()
	}

	res.Summary = ServeSummary{
		Rate:       cfg.ServeRate,
		Requests:   total,
		Corpus:     len(corpus),
		V:          corpus[0].NumNodes(),
		JobsPerSec: float64(len(all)) / elapsed.Seconds(),
		P50MS:      percentile(all, 0.50),
		P99MS:      percentile(all, 0.99),
		ColdP50MS:  percentile(cold, 0.50),
		WarmP50MS:  percentile(warm, 0.50),
		WarmP99MS:  percentile(warm, 0.99),
		QueueP50MS: percentileMS(queueMS, 0.50),
		QueueP99MS: percentileMS(queueMS, 0.99),
		SolveP50MS: percentileMS(solveMS, 0.50),
		SolveP99MS: percentileMS(solveMS, 0.99),
	}
	if health.Cache != nil {
		res.Summary.CacheHits = health.Cache.Hits
		res.Summary.CacheMisses = health.Cache.Misses
		if t := health.Cache.Hits + health.Cache.Misses; t > 0 {
			res.Summary.HitRate = float64(health.Cache.Hits) / float64(t)
		}
	}
	return res
}

// Tables renders the serve SLO sheet.
func (r *ServeResult) Tables() []*table {
	s := r.Summary
	t := &table{
		Title: "Serving tier under load — jobs/sec, cache hit rate, latency percentiles",
		Header: []string{"rate (req/s)", "requests", "corpus", "v", "jobs/sec",
			"hit rate", "p50", "p99", "cold p50", "warm p50", "warm p99",
			"queue p50", "queue p99", "solve p50", "solve p99"},
		Rows: [][]string{{
			fmt.Sprintf("%.0f", s.Rate), fmt.Sprint(s.Requests), fmt.Sprint(s.Corpus),
			fmt.Sprint(s.V), fmt.Sprintf("%.1f", s.JobsPerSec),
			fmt.Sprintf("%.2f", s.HitRate),
			fmt.Sprintf("%.1fms", s.P50MS), fmt.Sprintf("%.1fms", s.P99MS),
			fmt.Sprintf("%.1fms", s.ColdP50MS),
			fmt.Sprintf("%.1fms", s.WarmP50MS), fmt.Sprintf("%.1fms", s.WarmP99MS),
			fmt.Sprintf("%.1fms", s.QueueP50MS), fmt.Sprintf("%.1fms", s.QueueP99MS),
			fmt.Sprintf("%.1fms", s.SolveP50MS), fmt.Sprintf("%.1fms", s.SolveP99MS),
		}},
		Notes: []string{
			"latency is submit→terminal as a polling client sees it; cold = solved, warm = answered from the schedule cache",
			"queue/solve are per-stage span durations from each job's lifecycle trace (GET /v1/jobs/{id}/trace); cache hits have no solve span",
			"gates: every request done, repeats hit, warm byte-identical to a fresh solve (modulo job ID and wall time), bypass re-solves, /metrics passes the exposition linter",
		},
	}
	return []*table{t}
}

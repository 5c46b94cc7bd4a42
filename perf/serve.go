package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/procgraph"
	"repro/internal/server"
	"repro/internal/taskgraph"
)

// serveSpec is one serving workload: an in-process daemon on loopback,
// driven by a closed loop of nproc clients in the same process, each
// submitting a job and waiting for its terminal event before it submits
// the next.
type serveSpec struct {
	name string
	// cold selects the write-side daemon: a file-backed store (WAL and lease
	// journal), one local solve slot and one in-process cluster worker, and a
	// fresh instance per request. Otherwise the daemon keeps jobs in memory,
	// and every request repeats one of warmSize instances solved in set-up.
	cold        bool
	warmSize    int
	maxExpanded int64
}

var (
	serveWarm = serveSpec{name: "serve-warm", warmSize: 64, maxExpanded: 2_000}
	serveCold = serveSpec{name: "serve-cold", cold: true, maxExpanded: 2_000}
)

// Every instance is a 20-task layered DAG on four fully connected PEs. Half
// of serve-warm's drop their communication costs (the STG form), which
// usually proves optimality in one dive; serve-cold keeps the costs on
// every instance, so its solves take alike time and its latency
// percentiles do not straddle two kinds of request.
const (
	layeredDepth = 10
	layeredWidth = 2
	serveSystem  = "complete:4"
	// storeCap is the daemon's default bound on retained jobs. The store
	// scans every retained job on each submit, so a store that grew through
	// the run made latency rise with it; at the cap it holds still, as a
	// long-running daemon's does.
	storeCap = 1024
	// primeJobs are solved in serve-cold set-up so the timed loop starts
	// with open connections and a polling worker.
	primeJobs = 4
	// replayJobs bounds how many of serve-cold's checked instances the
	// traced run re-solves.
	replayJobs = 64
)

// loopShare is the part of the run time the timed loop takes, after the
// warm-up (see warmupShare); the rest goes to the correctness checks.
const loopShare = 0.75

func (sp serveSpec) instance(seed uint64, stream, k int) (instance, error) {
	lc := gen.LayeredConfig{
		Layers: layeredDepth, Width: layeredWidth,
		Seed: deriveSeed(seed, uint64(stream), uint64(k)),
		Name: fmt.Sprintf("%s-%d-%d", sp.name, stream, k),
	}
	var g *taskgraph.Graph
	var err error
	if !sp.cold && k%2 == 1 {
		g, err = gen.LayeredSTG(lc)
	} else {
		g, err = gen.Layered(lc)
	}
	if err != nil {
		return instance{}, err
	}
	sys, err := procgraph.ParseSpec(serveSystem, g.NumNodes())
	if err != nil {
		return instance{}, err
	}
	return instance{label: lc.Name, g: g, sys: sys}, nil
}

// Instance streams: the measured requests, and serve-cold's set-up jobs.
const (
	streamMeasured = 0
	streamPrime    = 1
)

// corpus returns the first n measured instances.
func (sp serveSpec) corpus(seed uint64, n int) ([]instance, error) {
	out := make([]instance, n)
	for k := range out {
		x, err := sp.instance(seed, streamMeasured, k)
		if err != nil {
			return nil, err
		}
		out[k] = x
	}
	return out, nil
}

// digestPrefix is how many instances the golden file pins.
func (sp serveSpec) digestPrefix() int {
	if sp.cold {
		return 256
	}
	return sp.warmSize
}

func (sp serveSpec) body(x instance, cache string) ([]byte, error) {
	raw, err := json.Marshal(x.g)
	if err != nil {
		return nil, err
	}
	return json.Marshal(&server.SubmitRequest{
		Graph:  raw,
		System: json.RawMessage(`"` + serveSystem + `"`),
		Engine: "astar",
		Config: server.JobConfig{MaxExpanded: sp.maxExpanded, HFunc: "load"},
		Cache:  cache,
	})
}

// daemon is the system under test: the job server, and for serve-cold the
// coordinator and its worker.
type daemon struct {
	srv        *server.Server
	coord      *cluster.Coordinator
	hs         *http.Server
	served     chan struct{}
	base       string
	stopWorker context.CancelFunc
	workerDone chan struct{}
	workerTr   *http.Transport
	dir        string
}

func startDaemon(cold bool, tmp string) (*daemon, error) {
	cfg := server.Config{Workers: 1, StoreCap: storeCap}
	d := &daemon{}
	if cold {
		dir, err := os.MkdirTemp(tmp, "serve-cold-")
		if err != nil {
			return nil, err
		}
		d.dir, cfg.StoreDir = dir, dir
	}
	srv, err := server.Open(cfg)
	if err != nil {
		d.removeDir()
		return nil, err
	}
	d.srv = srv
	if cold {
		d.coord = cluster.NewCoordinator(cluster.Config{Leases: srv.LeaseStore()})
		srv.EnableCluster(d.coord)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.hs = &http.Server{Handler: srv}
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	d.base = "http://" + ln.Addr().String()
	if !cold {
		return d, nil
	}
	d.workerTr = &http.Transport{}
	w := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: d.base, Name: "perf-worker", Slots: 1,
		Client: &http.Client{Transport: d.workerTr},
	})
	ctx, cancel := context.WithCancel(context.Background())
	d.stopWorker, d.workerDone = cancel, make(chan struct{})
	go func() {
		defer close(d.workerDone)
		_ = w.Run(ctx) // returns ctx's error once close cancels it
	}()
	for deadline := time.Now().Add(10 * time.Second); d.coord.Capacity() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			d.close()
			return nil, fmt.Errorf("cluster worker did not register within 10s")
		}
	}
	return d, nil
}

func (d *daemon) close() {
	if d.stopWorker != nil {
		d.stopWorker()
		<-d.workerDone
		d.workerTr.CloseIdleConnections()
	}
	if d.hs != nil {
		_ = d.hs.Close() // its only error is the listener's close error
		<-d.served
	}
	if d.srv != nil {
		d.srv.Close()
	}
	if d.coord != nil {
		d.coord.Close()
	}
	d.removeDir()
}

func (d *daemon) removeDir() {
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// client is one load-generator connection: its transport keeps a single
// keep-alive connection to the daemon.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
}

func newClients(base string) []*client {
	out := make([]*client, runtime.NumCPU())
	for i := range out {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		out[i] = &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, tr: tr, base: base}
	}
	return out
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.tr.CloseIdleConnections()
	}
}

func (c *client) do(method, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

func (c *client) submit(body []byte) (string, error) {
	data, code, err := c.do(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return "", err
	}
	var sub server.SubmitResponse
	if code != http.StatusAccepted || json.Unmarshal(data, &sub) != nil || sub.ID == "" {
		return "", fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(data))
	}
	return sub.ID, nil
}

// wait follows the job's /events stream, which the daemon ends with the
// terminal snapshot, and returns that snapshot's state.
func (c *client) wait(id string) (string, error) {
	data, code, err := c.do(http.MethodGet, "/v1/jobs/"+id+"/events?interval_ms=60000", nil)
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", fmt.Errorf("events %s: HTTP %d", id, code)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var st server.JobStatus
	if err := json.Unmarshal(lines[len(lines)-1], &st); err != nil {
		return "", fmt.Errorf("events %s: %w", id, err)
	}
	if st.State != server.StateDone {
		return st.State, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
	}
	return st.State, nil
}

func (c *client) getJSON(path string, v any) ([]byte, error) {
	data, code, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, code, bytes.TrimSpace(data))
	}
	return data, json.Unmarshal(data, v)
}

// trace returns a finished job's trace. The persist span is recorded just
// after the job turns terminal, so a trace read too early waits on the
// job's event stream, then retries across that short window.
func (c *client) trace(id string) (*server.TraceResponse, error) {
	for attempt := 0; ; attempt++ {
		var tr server.TraceResponse
		if _, err := c.getJSON("/v1/jobs/"+id+"/trace", &tr); err != nil {
			return nil, err
		}
		if findSpan(tr.Spans, "persist") != nil {
			return &tr, nil
		}
		switch {
		case attempt == 0:
			if _, err := c.wait(id); err != nil {
				return nil, err
			}
		case attempt < 1000:
			time.Sleep(time.Millisecond)
		default:
			return nil, fmt.Errorf("job %s: no persist span", id)
		}
	}
}

func (c *client) result(id string) ([]byte, *server.JobResult, error) {
	var res server.JobResult
	data, err := c.getJSON("/v1/jobs/"+id+"/result", &res)
	return data, &res, err
}

// job is one request of the timed loop: its instance, and when the client
// sent the submission, had its answer, and saw the job's terminal event.
type job struct {
	k                int
	x                instance
	id               string
	start, back, end time.Time
	trace            *server.TraceResponse
	res              *server.JobResult
}

func (j *job) latency() float64 { return ms(j.end.Sub(j.start)) }

// closedLoop keeps every client busy until deadline: each takes the next
// request k, submits next(k)'s body, waits on the job's event stream for its
// terminal snapshot, and repeats. After every 10th job's terminal event the
// client passes it to check, which reads what the checks need while the
// daemon still retains the job. closedLoop returns the finished jobs in the
// order they finished, and the failures.
func closedLoop(clients []*client, deadline time.Time, next func(k int) (instance, []byte, error), check func(c *client, j *job) error) ([]*job, []error) {
	var seq atomic.Int64
	var mu sync.Mutex
	var jobs []*job
	var errs []error
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				j := &job{k: int(seq.Add(1) - 1)}
				var body []byte
				var err error
				j.x, body, err = next(j.k)
				j.start = time.Now()
				if err == nil {
					j.id, err = c.submit(body)
				}
				j.back = time.Now()
				if err == nil {
					_, err = c.wait(j.id)
				}
				j.end = time.Now()
				if err == nil && j.k%10 == 0 {
					err = check(c, j)
				}
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("%s: %w", j.x.label, err))
				} else {
					jobs = append(jobs, j)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs, errs
}

// forEach runs fn over items, split across the clients.
func forEach[T any](clients []*client, items []T, fn func(c *client, item T)) {
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := i; k < len(items); k += len(clients) {
				fn(c, items[k])
			}
		}()
	}
	wg.Wait()
}

// windows is how many equal windows the timed loop is cut into. Each
// serving metric of the loop is the median of its windows' values, so a
// burst of load from elsewhere on the host that slows one window does not
// move it.
const windows = 10

// byWindow splits jobs by the window of the loop, from start and d long,
// in which they ended; jobs that ended after the loop are left out.
func byWindow(jobs []*job, start time.Time, d time.Duration) [][]*job {
	out := make([][]*job, windows)
	for _, j := range jobs {
		if i := int(int64(j.end.Sub(start)) * windows / int64(d)); i < windows {
			out[i] = append(out[i], j)
		}
	}
	return out
}

func findSpan(spans []obs.Span, name string) *obs.Span {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
	}
	return nil
}

// covered returns how much of parent the children's intervals cover.
func covered(parent obs.Span, children []obs.Span) int64 {
	var total int64
	cursor := parent.Start
	for _, c := range children { // spans arrive ordered by start
		lo, hi := max(c.Start, cursor), min(c.End, parent.End)
		if hi > lo {
			total += hi - lo
			cursor = hi
		}
	}
	return total
}

// stages splits one job's trace into the time each layer spent on it, in
// milliseconds. A span's self time excludes its children:
// dispatch ⊃ lease ⊃ decode + solve.
func stages(j *job) map[string]float64 {
	out := map[string]float64{"http.submit": ms(j.back.Sub(j.start))}
	var leases, work []obs.Span
	for _, s := range j.trace.Spans {
		d := float64(s.End-s.Start) / 1e6
		switch {
		case s.Name == "lease":
			leases = append(leases, s)
		case strings.HasPrefix(s.Origin, obs.OriginWorker):
			work = append(work, s)
		}
		switch s.Name {
		case "admit", "queue", "cache", "persist":
			out["server."+s.Name] += d
		case "decode":
			out["cluster.decode"] += d
		case "solve":
			out["solverpool.solve"] += d
		}
	}
	for _, s := range j.trace.Spans {
		switch s.Name {
		case "dispatch":
			out["server.dispatch_self"] += float64(s.End-s.Start-covered(s, leases)) / 1e6
		case "lease":
			out["cluster.lease_self"] += float64(s.End-s.Start-covered(s, work)) / 1e6
		}
	}
	out["cluster.remote"] = 0
	if len(leases) > 0 {
		out["cluster.remote"] = 1
	}
	admit, persist := findSpan(j.trace.Spans, "admit"), findSpan(j.trace.Spans, "persist")
	out["server.e2e"] = float64(persist.End-admit.Start) / 1e6
	out["latency"] = j.latency()
	return out
}

// requestSpans converts one job's trace into spans timed from epoch, under
// a root span from the client's submission to its terminal event.
func requestSpans(j *job, epoch time.Time) []span {
	rel := func(unixNS int64) int64 { return unixNS - epoch.UnixNano() }
	out := []span{{
		Name: "request", Start: int64(j.start.Sub(epoch)), End: int64(j.end.Sub(epoch)),
		Attrs: map[string]string{"job": j.id, "trace_id": j.trace.TraceID, "instance": j.x.label},
	}}
	for _, s := range j.trace.Spans {
		attrs := map[string]string{"origin": s.Origin}
		for k, v := range s.Attrs {
			attrs[k] = v
		}
		out = append(out, span{Name: s.Name, Parent: "request", Start: rel(s.Start), End: rel(s.End), Attrs: attrs})
	}
	return out
}

// How a serving-layer metric summarizes its stage over the traced jobs.
const (
	share     = iota // Σ stage / Σ latency: the stage's part of the mean latency
	tailShare        // p99 of the stage / p99 of the latency
	fraction         // mean of a 0/1 stage: the share of requests it applies to
)

// serveLayers lists the serving-layer metrics. Shares of nested spans
// overlap.
var serveLayers = []struct {
	name, stage string
	kind        int
}{
	{"http.submit_share", "http.submit", share},
	{"http.submit_p99_share", "http.submit", tailShare},
	{"server.admit_share", "server.admit", share},
	{"server.queue_share", "server.queue", share},
	{"server.queue_p99_share", "server.queue", tailShare},
	{"server.cache_share", "server.cache", share},
	{"server.dispatch_self_share", "server.dispatch_self", share},
	{"cluster.lease_self_share", "cluster.lease_self", share},
	{"cluster.decode_share", "cluster.decode", share},
	{"solverpool.solve_share", "solverpool.solve", share},
	{"solverpool.solve_p99_share", "solverpool.solve", tailShare},
	{"server.persist_share", "server.persist", share},
	{"server.persist_p99_share", "server.persist", tailShare},
	{"server.e2e_share", "server.e2e", share},
	{"cluster.remote_frac", "cluster.remote", fraction},
}

// Counters read from the daemon's health endpoint.
var serveCounters = []struct{ name, unit string }{
	{"solverpool.cache_hit_frac", "frac"},
	{"solverpool.model_hit_frac", "frac"},
	{"cluster.failovers", "count"},
}

// serveLayerZeros fills the serving-layer metrics of a workload that does
// not touch those layers.
func serveLayerZeros(m metricSet) {
	for _, l := range serveLayers {
		m.add(l.name, 0, "frac")
	}
	for _, c := range serveCounters {
		m.add(c.name, 0, c.unit)
	}
}

func healthDelta(before, after *server.Health, m metricSet) {
	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	m.add("solverpool.cache_hit_frac", ratio(float64(hits), float64(hits+misses)), "frac")
	mh, mb := after.ModelHits-before.ModelHits, after.ModelsBuilt-before.ModelsBuilt
	m.add("solverpool.model_hit_frac", ratio(float64(mh), float64(mh+mb)), "frac")
	var fo int64
	if after.Cluster != nil && before.Cluster != nil {
		fo = after.Cluster.Failovers - before.Cluster.Failovers
	}
	m.add("cluster.failovers", float64(fo), "count")
}

// normalized is a job result with the fields that differ between two
// solves of one question cleared: the job ID and the wall time.
func normalized(data []byte) ([]byte, error) {
	var res server.JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	res.ID, res.Stats.WallTime = "", 0
	return json.Marshal(&res)
}

// checkServed validates a served result against the instance it answers.
func checkServed(x instance, res *server.JobResult) string {
	s, err := res.Schedule.ToSchedule(x.g, x.sys)
	if err != nil {
		return fmt.Sprintf("%s: %v", x.label, err)
	}
	if err := s.Validate(); err != nil {
		return fmt.Sprintf("%s: invalid schedule: %v", x.label, err)
	}
	return checkLength(x.label, s, res.Length, res.Optimal, res.BoundFactor, res.Stats.UpperBound, 0, 0)
}

// setup starts the daemon and checks the workload's inputs against the
// golden digests. For serve-warm it solves the corpus once, so that every
// timed request hits the schedule cache, and returns the corpus and its
// request bodies; serve-cold solves a few set-up jobs of its own.
func (sp serveSpec) setup(o runOptions) (*daemon, []*client, []instance, [][]byte, error) {
	d, err := startDaemon(sp.cold, o.tmp)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	clients := newClients(d.base)
	fail := func(err error) (*daemon, []*client, []instance, [][]byte, error) {
		closeClients(clients)
		d.close()
		return nil, nil, nil, nil, err
	}
	corpus, err := sp.corpus(o.seed, sp.digestPrefix())
	if err != nil {
		return fail(err)
	}
	if msg := o.golden.checkCorpus(sp.name, corpus); msg != "" {
		return fail(errors.New(msg))
	}
	if sp.cold {
		corpus = nil
	}
	bodies := make([][]byte, len(corpus))
	for i, x := range corpus {
		if bodies[i], err = sp.body(x, ""); err != nil {
			return fail(err)
		}
	}
	prime := bodies
	if sp.cold {
		for k := 0; k < primeJobs; k++ {
			x, err := sp.instance(o.seed, streamPrime, k)
			if err != nil {
				return fail(err)
			}
			b, err := sp.body(x, "")
			if err != nil {
				return fail(err)
			}
			prime = append(prime, b)
		}
	}
	for _, b := range prime {
		id, err := clients[0].submit(b)
		if err == nil {
			_, err = clients[0].wait(id)
		}
		if err != nil {
			return fail(fmt.Errorf("set-up job: %w", err))
		}
	}
	return d, clients, corpus, bodies, nil
}

// fillStore submits n of the bodies, in turn, and waits for each job, so
// that serve-warm's timed requests meet a store already at its cap rather
// than one that grows under them.
func fillStore(clients []*client, bodies [][]byte, n int) error {
	ks := make([]int, n)
	for k := range ks {
		ks[k] = k
	}
	var mu sync.Mutex
	var first error
	forEach(clients, ks, func(c *client, k int) {
		id, err := c.submit(bodies[k%len(bodies)])
		if err == nil {
			_, err = c.wait(id)
		}
		mu.Lock()
		defer mu.Unlock()
		if first == nil {
			first = err
		}
	})
	return first
}

// runServe runs a serving workload.
func runServe(sp serveSpec, o runOptions) *result {
	r := newResult(sp.name)
	loop := time.Duration(float64(o.duration()) * loopShare)

	var (
		d       *daemon
		clients []*client
		corpus  []instance
		bodies  [][]byte
	)
	r.HostProbeMS = startMeasuring(o.warmup())
	for i := 0; i < setupsPerRun; i++ {
		if d != nil {
			closeClients(clients)
			d.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		d, clients, corpus, bodies, err = sp.setup(o)
		if err != nil {
			r.fail("set-up: %v", err)
			return r
		}
		r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
	}
	defer func() {
		closeClients(clients)
		d.close()
	}()
	if !sp.cold {
		if err := fillStore(clients, bodies, storeCap); err != nil {
			r.fail("filling the store: %v", err)
			return r
		}
	}

	// serve-warm repeats its corpus; serve-cold sends a fresh instance per
	// request. Every 10th job's result is fetched for the checks, and with
	// tracing its trace too.
	next := func(k int) (instance, []byte, error) {
		if !sp.cold {
			return corpus[k%len(corpus)], bodies[k%len(bodies)], nil
		}
		x, err := sp.instance(o.seed, streamMeasured, k)
		if err != nil {
			return x, nil, err
		}
		b, err := sp.body(x, "")
		return x, b, err
	}
	check := func(c *client, j *job) error {
		var err error
		if o.trace {
			if j.trace, err = c.trace(j.id); err != nil {
				return err
			}
		}
		_, j.res, err = c.result(j.id)
		return err
	}

	var before, after server.Health
	if _, err := clients[0].getJSON("/v1/healthz", &before); err != nil {
		r.fail("healthz: %v", err)
		return r
	}
	runtime.GC()
	allocs := allocBytes()
	start := time.Now()
	jobs, errs := closedLoop(clients, start.Add(loop), next, check)
	allocated := kibPer(allocs, len(jobs))
	if _, err := clients[0].getJSON("/v1/healthz", &after); err != nil {
		r.fail("healthz: %v", err)
		return r
	}
	r.Attempted += int64(len(jobs) + len(errs))
	r.Failed += int64(len(errs))
	for _, err := range errs {
		r.fail("%v", err)
	}
	if misses := after.Cache.Misses - before.Cache.Misses; !sp.cold && misses != 0 {
		r.Failed += misses
		r.fail("%d warm requests missed the schedule cache", misses)
	}

	var checked []*job
	var ratios []float64
	served := map[string]*server.JobResult{} // by instance label
	for _, j := range jobs {
		if j.res == nil {
			continue
		}
		checked = append(checked, j)
		if msg := checkServed(j.x, j.res); msg != "" {
			r.fail("%s", msg)
			continue
		}
		ratios = append(ratios, float64(j.res.Length)/lowerBound(j.x))
		served[j.x.label] = j.res
	}
	if !sp.cold {
		sp.checkCacheIdentity(clients[0], corpus, r)
	}

	if o.trace {
		var lats []float64
		perStage := map[string][]float64{}
		for _, j := range checked {
			if !sp.cold {
				if c := findSpan(j.trace.Spans, "cache"); c == nil || c.Attrs["outcome"] != "hit" || findSpan(j.trace.Spans, "solve") != nil {
					r.fail("%s: warm request %s was not answered from the cache", j.x.label, j.id)
					continue
				}
			}
			st := stages(j)
			lats = append(lats, st["latency"])
			for name, v := range st {
				perStage[name] = append(perStage[name], v)
			}
			r.spans = append(r.spans, requestSpans(j, start)...)
		}
		for _, l := range serveLayers {
			var v float64
			switch l.kind {
			case share:
				v = ratio(sum(perStage[l.stage]), sum(lats))
			case tailShare:
				v = ratio(quantile(perStage[l.stage], 0.99), quantile(lats, 0.99))
			case fraction:
				v = mean(perStage[l.stage])
			}
			r.Metrics.add(l.name, v, "frac")
		}
		healthDelta(&before, &after, r.Metrics)
		sp.replay(corpus, checked, served, r)
		// The daemon's job traces are always on, so the traced run adds
		// nothing to the daemon's work; it only reads more of them.
		r.Metrics.add("obs.trace_overhead_frac", 0, "frac")
		return r
	}

	// Each metric of the loop is the median of its windows' values.
	var p50s, p90s, rates []float64
	for _, w := range byWindow(jobs, start, loop) {
		var lats []float64
		for _, j := range w {
			lats = append(lats, j.latency())
		}
		p50s = append(p50s, quantile(lats, 0.5))
		p90s = append(p90s, quantile(lats, 0.9))
		rates = append(rates, float64(len(w))/(loop.Seconds()/windows))
	}
	r.Metrics.add("latency_ms_p50", quantile(p50s, 0.5), "ms")
	r.Metrics.add("latency_ms_p90", quantile(p90s, 0.5), "ms")
	r.Metrics.add("throughput_per_s", quantile(rates, 0.5), "1/s")
	r.Metrics.add("makespan_ratio", mean(ratios), "ratio")
	r.Metrics.add("alloc_kib_per_op", allocated, "KiB")
	r.addSetup()
	return r
}

// checkCacheIdentity checks that each warm instance's cached answer is
// byte-identical to a fresh solve that bypasses the cache, apart from the
// job ID and the wall time.
func (sp serveSpec) checkCacheIdentity(c *client, corpus []instance, r *result) {
	for _, x := range corpus {
		var answers [2][]byte
		for i, mode := range []string{"", server.CacheBypass} {
			b, err := sp.body(x, mode)
			var id string
			if err == nil {
				id, err = c.submit(b)
			}
			if err == nil {
				_, err = c.wait(id)
			}
			var data []byte
			if err == nil {
				data, _, err = c.result(id)
			}
			if err == nil {
				answers[i], err = normalized(data)
			}
			if err != nil {
				r.fail("%s: cache check: %v", x.label, err)
				return
			}
		}
		if !bytes.Equal(answers[0], answers[1]) {
			r.fail("%s: cached answer differs from a bypass re-solve:\ncached: %s\nbypass: %s", x.label, answers[0], answers[1])
		}
	}
}

// replay measures the search layers behind a serving workload's answers:
// the traced loop re-solves serve-warm's corpus, or serve-cold's validated
// sample, and must agree with what the daemon served.
func (sp serveSpec) replay(corpus []instance, checked []*job, served map[string]*server.JobResult, r *result) {
	layers := newSearchLayers(time.Now())
	cfg := server.JobConfig{MaxExpanded: sp.maxExpanded, HFunc: "load"}.EngineConfig()
	xs := corpus
	if sp.cold {
		xs = nil
		for _, j := range checked[:min(len(checked), replayJobs)] {
			xs = append(xs, j.x)
		}
	}
	for _, x := range xs {
		res, err := tracedSolve(layers, x.label, "astar", x.g, x.sys, cfg)
		if err != nil {
			r.fail("%v", err)
			continue
		}
		if want := served[x.label]; want != nil && (want.Stats.Expanded != res.Stats.Expanded || want.Length != res.Length) {
			r.fail("%s: traced replay expanded=%d length=%d, daemon served expanded=%d length=%d",
				x.label, res.Stats.Expanded, res.Length, want.Stats.Expanded, want.Length)
		}
	}
	layers.metrics(r.Metrics)
	r.spans = append(r.spans, layers.spans...)
	r.Layers = layers
}

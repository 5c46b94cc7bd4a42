package cluster

// End-to-end coverage for the distributed solve cluster: a coordinator
// embedded in an httptest daemon plus real Worker runtimes in-process.
// The acceptance checks of ISSUE 3 live here: a 2-worker cluster returns
// byte-identical schedules to local mode, survives a worker killed
// mid-job (the job is re-leased and finished by the survivor at the same
// optimal makespan), and /v1/healthz reports the live worker count and
// aggregate capacity. The /v1/workers endpoint tests back docs/API.md.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stg"
)

// gateEngine blocks its first blockCalls solves until their context is
// cancelled (returning a non-optimal incumbent, like a real interrupted
// search) and solves optimally via astar afterwards — the deterministic
// stand-in for "a long search on a worker that is about to die".
type gateEngine struct {
	name       string
	blockCalls int32
	calls      atomic.Int32
	started    chan int // receives the 1-based call index as a solve starts
}

func newGate(name string, blockCalls int32) *gateEngine {
	g := &gateEngine{name: name, blockCalls: blockCalls, started: make(chan int, 64)}
	engine.Register(g)
	return g
}

func (g *gateEngine) Name() string { return g.name }

// reset rewinds the gate for a fresh test run (`go test -count=N` reuses
// the registered instances).
func (g *gateEngine) reset() {
	g.calls.Store(0)
	for {
		select {
		case <-g.started:
		default:
			return
		}
	}
}

func (g *gateEngine) Solve(ctx context.Context, m *core.Model, cfg engine.Config) (*core.Result, error) {
	n := g.calls.Add(1)
	g.started <- int(n)
	blocked := n <= g.blockCalls
	if blocked {
		<-ctx.Done()
	}
	astar, err := engine.Lookup("astar")
	if err != nil {
		return nil, err
	}
	res, err := astar.Solve(context.Background(), m, engine.Config{})
	if err != nil {
		return nil, err
	}
	if blocked {
		res.Optimal = false
		res.BoundFactor = 0
	}
	return res, nil
}

var (
	gateFailover = newGate("gate-failover", 1)
	gateAttempts = newGate("gate-attempts", 1)
	gateDrain    = newGate("gate-drain", 1)
	gateBlock    = newGate("gate-block", 1<<30)
)

// testTimings are aggressive so death detection and failover land within
// tens of milliseconds.
func testTimings() Config {
	return Config{
		LeaseTTL:       time.Second,
		WorkerTimeout:  250 * time.Millisecond,
		MaxAttempts:    3,
		PollWait:       100 * time.Millisecond,
		ReportInterval: 25 * time.Millisecond,
		ReapInterval:   25 * time.Millisecond,
	}
}

// newCluster starts a daemon with an embedded coordinator, torn down with
// the test.
func newCluster(t *testing.T, scfg server.Config, ccfg Config) (*Coordinator, string) {
	t.Helper()
	srv := server.New(scfg)
	coord := NewCoordinator(ccfg)
	srv.EnableCluster(coord)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		coord.Close()
	})
	return coord, ts.URL
}

// startWorker runs a Worker against the daemon and waits until it is
// registered (the coordinator's capacity includes it).
func startWorker(t *testing.T, coord *Coordinator, url, name string, slots int) *Worker {
	t.Helper()
	w := NewWorker(WorkerConfig{Coordinator: url, Name: name, Slots: slots, Logf: t.Logf})
	// Read the capacity before the worker can register, or a fast
	// registration is counted in the baseline and waited for twice.
	before := coord.Capacity()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		w.Kill()
		cancel()
		<-done
	})
	waitFor(t, "worker "+name+" to register", func() bool { return coord.Capacity() >= before+slots })
	return w
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func paperGraphJSON(t *testing.T) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(gen.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postJob(t *testing.T, base string, req server.SubmitRequest) string {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got %d", resp.StatusCode)
	}
	var sub server.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub.ID
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func waitTerminal(t *testing.T, base, id string) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var st server.JobStatus
		if code := getJSON(t, base+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status %s: got %d", id, code)
		}
		switch st.State {
		case server.StateQueued, server.StateRunning:
			time.Sleep(5 * time.Millisecond)
		default:
			return st
		}
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return server.JobStatus{}
}

func jobResult(t *testing.T, base, id string) server.JobResult {
	t.Helper()
	var res server.JobResult
	if code := getJSON(t, base+"/v1/jobs/"+id+"/result", &res); code != http.StatusOK {
		t.Fatalf("result %s: got %d", id, code)
	}
	return res
}

// TestClusterMatchesLocalByteForByte is the acceptance check that cluster
// mode changes nothing about the answers: a batch submitted to a 2-worker
// cluster yields schedules byte-identical to the same batch solved by a
// plain local daemon, and /v1/healthz reflects the fleet.
func TestClusterMatchesLocalByteForByte(t *testing.T) {
	coord, clusterURL := newCluster(t, server.Config{Workers: 1}, testTimings())
	startWorker(t, coord, clusterURL, "wa", 1)
	startWorker(t, coord, clusterURL, "wb", 1)

	localSrv := server.New(server.Config{Workers: 2})
	localTS := httptest.NewServer(localSrv)
	t.Cleanup(func() {
		localTS.Close()
		localSrv.Close()
	})

	graph := paperGraphJSON(t)
	reqs := []server.SubmitRequest{
		{Graph: graph, System: json.RawMessage(`"ring:3"`), Engine: "astar"},
		{Graph: graph, System: json.RawMessage(`"complete:3"`), Engine: "dfbb"},
		{Graph: graph, System: json.RawMessage(`"chain:2"`), Engine: "ida"},
	}
	var clusterIDs, localIDs []string
	for _, req := range reqs {
		clusterIDs = append(clusterIDs, postJob(t, clusterURL, req))
		localIDs = append(localIDs, postJob(t, localTS.URL, req))
	}
	for i := range reqs {
		cst := waitTerminal(t, clusterURL, clusterIDs[i])
		lst := waitTerminal(t, localTS.URL, localIDs[i])
		if cst.State != server.StateDone || lst.State != server.StateDone {
			t.Fatalf("job %d: cluster=%s (%s) local=%s (%s)", i, cst.State, cst.Error, lst.State, lst.Error)
		}
		// Only astar feeds the progress tracer (matching local mode, where
		// dfbb/ida report effort via result stats instead).
		if i == 0 && cst.Progress.Expanded == 0 {
			t.Errorf("job %d: cluster job shows no reported progress", i)
		}
		cres := jobResult(t, clusterURL, clusterIDs[i])
		lres := jobResult(t, localTS.URL, localIDs[i])
		cb, err := json.Marshal(cres.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := json.Marshal(lres.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cb, lb) {
			t.Errorf("job %d: cluster schedule differs from local:\n%s\nvs\n%s", i, cb, lb)
		}
		if cres.Engine != lres.Engine || cres.Optimal != lres.Optimal || cres.Length != lres.Length {
			t.Errorf("job %d: result headers differ: %+v vs %+v", i, cres, lres)
		}
	}

	var h server.Health
	if code := getJSON(t, clusterURL+"/v1/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz: got %d", code)
	}
	if h.Cluster == nil || h.Cluster.Workers != 2 || h.Cluster.Capacity != 2 {
		t.Fatalf("healthz cluster view = %+v, want 2 workers / capacity 2", h.Cluster)
	}
	if h.Capacity != 1+2 {
		t.Fatalf("aggregate capacity = %d, want local 1 + cluster 2", h.Capacity)
	}
	// Remote-first placement guarantees the first two jobs a lease (both
	// remote slots are idle when they arrive); the third may run on either
	// side. Each job ran exactly once — one lease that ended done, or one
	// daemon-side solve — and every lease granted was such a run.
	if h.Cluster.Dispatched < 2 {
		t.Fatalf("dispatched = %d, want >= 2", h.Cluster.Dispatched)
	}
	var leasedRuns int64
	for i, id := range clusterIDs {
		var tr server.TraceResponse
		if code := getJSON(t, clusterURL+"/v1/jobs/"+id+"/trace", &tr); code != http.StatusOK {
			t.Fatalf("trace %s: got %d", id, code)
		}
		leased, local := 0, 0
		for _, sp := range tr.Spans {
			switch {
			case sp.Name == "lease" && sp.Origin == obs.OriginCoordinator && sp.Attrs["outcome"] == "done":
				leased++
			case sp.Name == "solve" && sp.Origin == obs.OriginDaemon:
				local++
			}
		}
		if leased+local != 1 {
			t.Errorf("job %d ran %d times on the cluster and %d locally, want exactly once", i, leased, local)
		}
		leasedRuns += int64(leased)
	}
	if leasedRuns != h.Cluster.Dispatched {
		t.Fatalf("%d leased runs, but dispatched = %d", leasedRuns, h.Cluster.Dispatched)
	}

	// The cluster view of /v1/engines: both workers advertise astar.
	var engines []server.EngineInfo
	if code := getJSON(t, clusterURL+"/v1/engines", &engines); code != http.StatusOK {
		t.Fatalf("engines: got %d", code)
	}
	found := false
	for _, e := range engines {
		if e.Name == "astar" {
			found = true
			if e.ClusterWorkers != 2 {
				t.Fatalf("astar cluster_workers = %d, want 2", e.ClusterWorkers)
			}
		}
	}
	if !found {
		t.Fatal("engines listing misses astar")
	}
}

var gatePlace = newGate("gate-place", 1<<30)

// TestLocalSlotDrainsClusterQueue pins placement decided when a job is
// handed out, not at admission: with the only remote worker and the
// daemon's only local slot both held on gate jobs, a third job queues, and
// once the local gate is released the local slot must take it while the
// remote worker is still held.
func TestLocalSlotDrainsClusterQueue(t *testing.T) {
	gatePlace.reset()
	coord, url := newCluster(t, server.Config{Workers: 1}, testTimings())
	startWorker(t, coord, url, "held", 1)
	submit := func(engine string) string {
		return postJob(t, url, server.SubmitRequest{
			Graph:  paperGraphJSON(t),
			System: json.RawMessage(`"ring:3"`),
			Engine: engine,
		})
	}

	remote := submit(gatePlace.name)
	<-gatePlace.started // the idle remote worker takes the first job
	if h := coord.Health(); h.Leased != 1 {
		t.Fatalf("first job: cluster health %+v, want it leased", h)
	}
	local := submit(gatePlace.name)
	<-gatePlace.started // the remote slot is taken: the local slot takes the second
	queued := submit("astar")
	waitFor(t, "the third job to queue", func() bool { return coord.Health().Pending == 1 })

	req, _ := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+local, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := waitTerminal(t, url, queued); st.State != server.StateDone || st.Length != 14 || !st.Optimal {
		t.Fatalf("queued job = state %s length %d optimal %v (error %q), want done/14/true",
			st.State, st.Length, st.Optimal, st.Error)
	}
	var st server.JobStatus
	getJSON(t, url+"/v1/jobs/"+remote, &st)
	if st.State != server.StateRunning {
		t.Fatalf("remote job state = %s, want still running on the held worker", st.State)
	}
	var tr server.TraceResponse
	if code := getJSON(t, url+"/v1/jobs/"+queued+"/trace", &tr); code != http.StatusOK {
		t.Fatalf("trace: got %d", code)
	}
	var solved bool
	for _, sp := range tr.Spans {
		if sp.Name == "lease" {
			t.Errorf("queued job was leased: %+v", sp)
		}
		solved = solved || (sp.Name == "solve" && sp.Origin == obs.OriginDaemon)
	}
	if !solved {
		t.Errorf("queued job has no daemon solve span: %+v", tr.Spans)
	}
	if h := coord.Health(); h.Dispatched != 1 {
		t.Fatalf("dispatched = %d, want 1 (the held remote job only)", h.Dispatched)
	}
}

// TestNilResultReportFailsJob: a worker's terminal report that sets done
// but carries neither a result nor an error must not leave the job
// reading done with no schedule — the job fails with a message.
func TestNilResultReportFailsJob(t *testing.T) {
	cfg := testTimings()
	cfg.WorkerTimeout = 30 * time.Second // the hand-driven worker polls slowly
	_, url := newCluster(t, server.Config{Workers: 1}, cfg)
	post := func(path string, body, out any) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: got %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	var reg RegisterResponse
	post("/v1/workers/register", RegisterRequest{ProtocolVersion: ProtocolVersion, Name: "hollow", Capacity: 1}, &reg)
	id := postJob(t, url, server.SubmitRequest{Graph: paperGraphJSON(t), System: json.RawMessage(`"ring:3"`)})
	var lease LeaseResponse
	waitFor(t, "the job's lease", func() bool {
		post("/v1/workers/lease", LeaseRequest{ProtocolVersion: ProtocolVersion, WorkerID: reg.WorkerID}, &lease)
		return lease.Job != nil
	})
	if lease.Job.ID != id {
		t.Fatalf("leased %s, want %s", lease.Job.ID, id)
	}
	var ack ReportResponse
	post("/v1/workers/jobs/"+id+"/report", ReportRequest{ProtocolVersion: ProtocolVersion, WorkerID: reg.WorkerID, Done: true}, &ack)
	st := waitTerminal(t, url, id)
	if st.State != server.StateFailed || st.Error == "" {
		t.Fatalf("result-less report: job state %s (error %q), want failed with a message", st.State, st.Error)
	}
}

// TestClusterFailover kills the worker holding a running job: the
// coordinator must detect the death by missed heartbeats, re-lease the
// job to the survivor, and the job must land done with the same optimal
// makespan a local solve produces — plus /healthz showing one live worker
// and the failover count.
func TestClusterFailover(t *testing.T) {
	gateFailover.reset()
	coord, url := newCluster(t, server.Config{Workers: 1}, testTimings())
	victim := startWorker(t, coord, url, "victim", 1)

	id := postJob(t, url, server.SubmitRequest{
		Graph:  paperGraphJSON(t),
		System: json.RawMessage(`"ring:3"`),
		Engine: "gate-failover",
	})
	// The only worker leases the job and its solve blocks.
	if n := <-gateFailover.started; n != 1 {
		t.Fatalf("first gate call = %d, want 1", n)
	}

	// A second worker joins; then the victim dies mid-job.
	startWorker(t, coord, url, "survivor", 1)
	victim.Kill()

	// The second gate call is the re-leased attempt on the survivor.
	if n := <-gateFailover.started; n != 2 {
		t.Fatalf("second gate call = %d, want 2", n)
	}
	st := waitTerminal(t, url, id)
	if st.State != server.StateDone {
		t.Fatalf("failover job state = %s (error %q), want done", st.State, st.Error)
	}
	if !st.Optimal || st.Length != 14 {
		t.Fatalf("failover result length=%d optimal=%v, want the local optimum 14/true", st.Length, st.Optimal)
	}

	var h server.Health
	getJSON(t, url+"/v1/healthz", &h)
	if h.Cluster == nil || h.Cluster.Workers != 1 || h.Cluster.Capacity != 1 {
		t.Fatalf("after death healthz cluster = %+v, want 1 worker / capacity 1", h.Cluster)
	}
	if h.Cluster.Failovers < 1 {
		t.Fatalf("failovers = %d, want >= 1", h.Cluster.Failovers)
	}
}

// TestClusterFailsAfterMaxAttempts: with a single worker and MaxAttempts
// 1, a job whose worker dies is not retried — it fails with the collected
// reason, the bounded-retry contract.
func TestClusterFailsAfterMaxAttempts(t *testing.T) {
	cfg := testTimings()
	cfg.MaxAttempts = 1
	gateAttempts.reset()
	coord, url := newCluster(t, server.Config{Workers: 1}, cfg)
	w := startWorker(t, coord, url, "flaky", 1)

	id := postJob(t, url, server.SubmitRequest{
		Graph:  paperGraphJSON(t),
		System: json.RawMessage(`"ring:3"`),
		Engine: "gate-attempts",
	})
	<-gateAttempts.started
	w.Kill()

	st := waitTerminal(t, url, id)
	if st.State != server.StateFailed {
		t.Fatalf("state = %s, want failed after the attempt budget", st.State)
	}
	if !strings.Contains(st.Error, "1 failed attempt") {
		t.Fatalf("error = %q, want the bounded-retry reason", st.Error)
	}
}

// TestClusterGracefulDrainFallsBackImmediately: the only worker drains
// (graceful stop, not a crash) while holding a job. The abandon report
// must hand the job straight back — excluded from the drainer, without
// charging the failure budget — and with no other worker eligible it must
// complete on the daemon's local pool at the optimal makespan, well
// before the heartbeat timeout would have noticed a crash.
func TestClusterGracefulDrainFallsBackImmediately(t *testing.T) {
	cfg := testTimings()
	// Generous death-detection timings: if the drain path leaned on the
	// failure detector instead of the abandon report, the test would hang
	// past its own deadline rather than pass slowly.
	cfg.WorkerTimeout = 30 * time.Second
	cfg.MaxAttempts = 1
	gateDrain.reset()
	coord, url := newCluster(t, server.Config{Workers: 1}, cfg)

	w := NewWorker(WorkerConfig{Coordinator: url, Name: "drainer", Slots: 1, Logf: t.Logf})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	waitFor(t, "drainer to register", func() bool { return coord.Capacity() == 1 })

	id := postJob(t, url, server.SubmitRequest{
		Graph:  paperGraphJSON(t),
		System: json.RawMessage(`"ring:3"`),
		Engine: "gate-drain",
	})
	<-gateDrain.started // the solve is running on the worker
	cancel()            // graceful drain: abandon, not crash
	<-done

	// Second gate call is the local-pool fallback solve.
	if n := <-gateDrain.started; n != 2 {
		t.Fatalf("second gate call = %d, want 2", n)
	}
	st := waitTerminal(t, url, id)
	if st.State != server.StateDone || !st.Optimal || st.Length != 14 {
		t.Fatalf("drained job = state %s length %d optimal %v (error %q), want done/14/true",
			st.State, st.Length, st.Optimal, st.Error)
	}
}

// TestDrainedWorkerLeavesAtOnce: a worker that drains gracefully
// deregisters on its way out, so its idle slots no longer hold a new job
// back from the daemon's local slot. The failure detector is set far
// beyond the deadline: a job that had to wait for reap would miss it.
func TestDrainedWorkerLeavesAtOnce(t *testing.T) {
	cfg := testTimings()
	cfg.WorkerTimeout = 30 * time.Second
	coord, url := newCluster(t, server.Config{Workers: 1}, cfg)

	w := NewWorker(WorkerConfig{Coordinator: url, Name: "leaver", Slots: 1, Logf: t.Logf})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	waitFor(t, "leaver to register", func() bool { return coord.Capacity() == 1 })
	cancel()
	<-done

	start := time.Now()
	id := postJob(t, url, server.SubmitRequest{
		Graph:  paperGraphJSON(t),
		System: json.RawMessage(`"ring:3"`),
	})
	st := waitTerminal(t, url, id)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("job after the drain took %v, want < 5s (a local slot must not wait for reap)", took)
	}
	if st.State != server.StateDone || st.Length != 14 || !st.Optimal {
		t.Fatalf("job after the drain: state=%s length=%d optimal=%v, want done/14/true", st.State, st.Length, st.Optimal)
	}
	var h server.Health
	getJSON(t, url+"/v1/healthz", &h)
	if h.Cluster == nil || h.Cluster.Workers != 0 || h.Cluster.Dispatched != 0 {
		t.Fatalf("healthz cluster = %+v, want 0 workers, 0 dispatched", h.Cluster)
	}
}

// TestClusterFallsBackToLocalPool: a -cluster daemon with no registered
// workers serves jobs exactly like a plain one.
func TestClusterFallsBackToLocalPool(t *testing.T) {
	_, url := newCluster(t, server.Config{}, testTimings())
	id := postJob(t, url, server.SubmitRequest{
		Graph:  paperGraphJSON(t),
		System: json.RawMessage(`"ring:3"`),
	})
	st := waitTerminal(t, url, id)
	if st.State != server.StateDone || st.Length != 14 || !st.Optimal {
		t.Fatalf("local fallback: state=%s length=%d optimal=%v, want done/14/true", st.State, st.Length, st.Optimal)
	}
	var h server.Health
	getJSON(t, url+"/v1/healthz", &h)
	if h.Cluster == nil || h.Cluster.Workers != 0 || h.Cluster.Dispatched != 0 {
		t.Fatalf("healthz cluster = %+v, want 0 workers, 0 dispatched", h.Cluster)
	}
}

// TestClusterCancelRemoteJob cancels a job mid-solve on a worker: the job
// must read cancelled promptly and the worker must stop its search (the
// gate engine returns on context cancellation).
func TestClusterCancelRemoteJob(t *testing.T) {
	gateBlock.reset()
	coord, url := newCluster(t, server.Config{Workers: 1}, testTimings())
	startWorker(t, coord, url, "wc", 1)

	id := postJob(t, url, server.SubmitRequest{
		Graph:  paperGraphJSON(t),
		System: json.RawMessage(`"ring:3"`),
		Engine: "gate-block",
	})
	<-gateBlock.started

	req, _ := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := waitTerminal(t, url, id)
	if st.State != server.StateCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
	// The lease is revoked: the worker's next report gets 410/cancel and
	// the solve's context fires. Wait for the lease table to empty.
	waitFor(t, "lease table to drain", func() bool {
		h := coord.Health()
		return h.Leased == 0 && h.Pending == 0
	})
}

// TestClusterBackpressureAggregatesCapacity: with BacklogPerSlot=1 and one
// local slot occupied by an active job, submissions bounce with 503 —
// until a worker registers and the aggregate capacity absorbs the backlog.
func TestClusterBackpressureAggregatesCapacity(t *testing.T) {
	gateBlock.reset()
	coord, url := newCluster(t, server.Config{Workers: 1, BacklogPerSlot: 1}, testTimings())

	// No workers: one active job saturates 1 slot × 1 backlog.
	id := postJob(t, url, server.SubmitRequest{
		Graph:  paperGraphJSON(t),
		System: json.RawMessage(`"ring:3"`),
		Engine: "gate-block",
	})
	<-gateBlock.started

	body, _ := json.Marshal(server.SubmitRequest{Graph: paperGraphJSON(t), System: json.RawMessage(`"ring:3"`)})
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit into a full backlog: got %d, want 503", resp.StatusCode)
	}

	// A worker joins: capacity 1+4, the same submission is admitted.
	startWorker(t, coord, url, "relief", 4)
	id2 := postJob(t, url, server.SubmitRequest{Graph: paperGraphJSON(t), System: json.RawMessage(`"ring:3"`)})
	if st := waitTerminal(t, url, id2); st.State != server.StateDone {
		t.Fatalf("post-relief job state = %s (%s), want done", st.State, st.Error)
	}

	// Free the blocked job.
	req, _ := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+id, nil)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	waitTerminal(t, url, id)
}

// TestWorkerEndpoints walks the /v1/workers protocol surface documented in
// docs/API.md: registration, heartbeat, empty lease polls, report error
// codes, the listing, and leave.
func TestWorkerEndpoints(t *testing.T) {
	_, url := newCluster(t, server.Config{}, testTimings())

	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		return resp, out.Bytes()
	}

	// A worker speaking another protocol version is refused with a typed
	// error naming both versions — on register and lease alike.
	resp, data := post("/v1/workers/register", RegisterRequest{ProtocolVersion: ProtocolVersion + 1, Name: "probe"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("version-mismatch register: got %d, want 400", resp.StatusCode)
	}
	var envelope server.ErrorResponse
	if err := json.Unmarshal(data, &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Code != server.ErrCodeProtocolMismatch {
		t.Fatalf("version-mismatch code = %q, want %q", envelope.Code, server.ErrCodeProtocolMismatch)
	}
	wantMsg := (&ProtocolError{Worker: ProtocolVersion + 1, Coordinator: ProtocolVersion}).Error()
	if envelope.Message != wantMsg {
		t.Fatalf("version-mismatch message = %q, want %q", envelope.Message, wantMsg)
	}
	if resp, _ := post("/v1/workers/lease", LeaseRequest{WorkerID: "worker-1", WaitMS: 1}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("versionless lease: got %d, want 400", resp.StatusCode)
	}

	// Register: capacity < 1 is clamped to 1; the reply carries the
	// cadence contract.
	resp, data = post("/v1/workers/register", RegisterRequest{ProtocolVersion: ProtocolVersion, Name: "probe", Engines: []string{"astar"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: got %d: %s", resp.StatusCode, data)
	}
	var reg RegisterResponse
	if err := json.Unmarshal(data, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.WorkerID == "" || reg.LeaseTTLMS <= 0 || reg.ReportIntervalMS <= 0 {
		t.Fatalf("register response = %+v", reg)
	}

	// Heartbeat: known worker 200, unknown 404.
	if resp, _ := post("/v1/workers/heartbeat", HeartbeatRequest{WorkerID: reg.WorkerID}); resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat: got %d", resp.StatusCode)
	}
	if resp, _ := post("/v1/workers/heartbeat", HeartbeatRequest{WorkerID: "worker-999"}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown heartbeat: got %d, want 404", resp.StatusCode)
	}

	// Lease: an empty queue answers 200 with a null job once the poll
	// budget lapses; an unknown worker is told to re-register.
	resp, data = post("/v1/workers/lease", LeaseRequest{ProtocolVersion: ProtocolVersion, WorkerID: reg.WorkerID, WaitMS: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty lease: got %d", resp.StatusCode)
	}
	var lease LeaseResponse
	if err := json.Unmarshal(data, &lease); err != nil {
		t.Fatal(err)
	}
	if lease.Job != nil {
		t.Fatalf("empty lease returned a job: %+v", lease.Job)
	}
	if resp, _ := post("/v1/workers/lease", LeaseRequest{ProtocolVersion: ProtocolVersion, WorkerID: "worker-999", WaitMS: 1}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-worker lease: got %d, want 404", resp.StatusCode)
	}

	// Report: unknown worker 404; a lease this worker does not hold 410.
	if resp, _ := post("/v1/workers/jobs/job-1/report", ReportRequest{ProtocolVersion: ProtocolVersion, WorkerID: "worker-999"}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-worker report: got %d, want 404", resp.StatusCode)
	}
	if resp, _ := post("/v1/workers/jobs/job-1/report", ReportRequest{ProtocolVersion: ProtocolVersion, WorkerID: reg.WorkerID}); resp.StatusCode != http.StatusGone {
		t.Fatalf("unheld-lease report: got %d, want 410", resp.StatusCode)
	}

	// Listing: the registered worker appears with its clamped capacity.
	var list WorkerList
	if code := getJSON(t, url+"/v1/workers", &list); code != http.StatusOK {
		t.Fatalf("workers list: got %d", code)
	}
	if len(list.Workers) != 1 || list.Workers[0].ID != reg.WorkerID || list.Workers[0].Capacity != 1 {
		t.Fatalf("workers list = %+v", list.Workers)
	}
	if list.Workers[0].Name != "probe" || len(list.Workers[0].Engines) == 0 {
		t.Fatalf("workers row = %+v", list.Workers[0])
	}

	// Leave: unknown worker 404; a known one is deregistered at once.
	if resp, _ := post("/v1/workers/leave", LeaveRequest{WorkerID: "worker-999"}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-worker leave: got %d, want 404", resp.StatusCode)
	}
	if resp, _ := post("/v1/workers/leave", LeaveRequest{WorkerID: reg.WorkerID}); resp.StatusCode != http.StatusOK {
		t.Fatalf("leave: got %d", resp.StatusCode)
	}
	getJSON(t, url+"/v1/workers", &list)
	if len(list.Workers) != 0 {
		t.Fatalf("workers list after leave = %+v", list.Workers)
	}
}

// Example_quickstart is the README "Scale out with workers" flow in
// miniature: daemon with -cluster, one worker, one job.
func Example_quickstart() {
	srv := server.New(server.Config{Workers: 1})
	coord := NewCoordinator(Config{})
	srv.EnableCluster(coord)
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close(); coord.Close() }()

	ctx, cancel := context.WithCancel(context.Background())
	w := NewWorker(WorkerConfig{Coordinator: ts.URL, Name: "w1", Slots: 1})
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	for coord.Capacity() == 0 {
		time.Sleep(5 * time.Millisecond)
	}

	body := `{"graph_text": "graph app\nnode 0 2\nnode 1 3\nedge 0 1 1\n", "system": "ring:2"}`
	resp, _ := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	var sub server.SubmitResponse
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	for {
		r, _ := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
		var st server.JobStatus
		json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if st.State == server.StateDone {
			fmt.Println("length:", st.Length, "optimal:", st.Optimal)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
	// Output: length: 5 optimal: true
}

// TestClusterLargeInstanceMatchesLocal runs the new size regime through the
// worker fleet: a v = 80 layered STG job (beyond the old single-word mask)
// solved remotely must land done, proven optimal, and byte-identical to the
// same job solved by a plain local daemon.
func TestClusterLargeInstanceMatchesLocal(t *testing.T) {
	coord, clusterURL := newCluster(t, server.Config{Workers: 1}, testTimings())
	startWorker(t, coord, clusterURL, "wl", 1)

	localSrv := server.New(server.Config{Workers: 1})
	localTS := httptest.NewServer(localSrv)
	t.Cleanup(func() {
		localTS.Close()
		localSrv.Close()
	})

	g, err := gen.Layered(gen.LayeredConfig{Layers: 20, Width: 4, Seed: 42}) // v = 80
	if err != nil {
		t.Fatal(err)
	}
	var stgBuf bytes.Buffer
	if err := stg.Write(&stgBuf, g); err != nil {
		t.Fatal(err)
	}
	req := server.SubmitRequest{
		GraphSTG: stgBuf.String(),
		System:   json.RawMessage(`"complete:8"`),
		Engine:   "astar",
		Config:   server.JobConfig{HPlus: true},
	}
	clusterID := postJob(t, clusterURL, req)
	localID := postJob(t, localTS.URL, req)

	cst := waitTerminal(t, clusterURL, clusterID)
	lst := waitTerminal(t, localTS.URL, localID)
	if cst.State != server.StateDone || lst.State != server.StateDone {
		t.Fatalf("cluster=%s (%s) local=%s (%s)", cst.State, cst.Error, lst.State, lst.Error)
	}
	cres := jobResult(t, clusterURL, clusterID)
	lres := jobResult(t, localTS.URL, localID)
	if !cres.Optimal || cres.BoundFactor != 1 {
		t.Fatalf("remote v=80 solve not proven optimal: optimal=%v bound=%g", cres.Optimal, cres.BoundFactor)
	}
	if len(cres.Schedule.Placements) != 80 {
		t.Fatalf("remote schedule has %d placements, want 80", len(cres.Schedule.Placements))
	}
	cb, err := json.Marshal(cres.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := json.Marshal(lres.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cb, lb) {
		t.Errorf("v=80 cluster schedule differs from local:\n%s\nvs\n%s", cb, lb)
	}
	if cres.Length != lres.Length || cres.Optimal != lres.Optimal {
		t.Errorf("result headers differ: %+v vs %+v", cres, lres)
	}
}

// TestClusterTraceEndToEnd is the ISSUE 8 acceptance check for tracing:
// a job solved on a remote worker yields one coherent trace at the
// coordinator — daemon spans (admit, queue, cache, dispatch, persist),
// the coordinator's lease span, and the worker's decode/solve spans
// shipped back on the terminal report — with monotonic timestamps and
// the lifecycle order submit → admit → queue → lease → solve → persist.
func TestClusterTraceEndToEnd(t *testing.T) {
	coord, base := newCluster(t, server.Config{Workers: 1}, testTimings())
	startWorker(t, coord, base, "wa", 1)

	id := postJob(t, base, server.SubmitRequest{Graph: paperGraphJSON(t), Engine: "astar"})
	if st := waitTerminal(t, base, id); st.State != server.StateDone {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}

	var tr server.TraceResponse
	if code := getJSON(t, base+"/v1/jobs/"+id+"/trace", &tr); code != http.StatusOK {
		t.Fatalf("trace: got %d", code)
	}
	if tr.TraceID == "" || tr.State != server.StateDone {
		t.Fatalf("trace header incomplete: %+v", tr)
	}

	// Snapshot orders by start time; every span must be well-formed and
	// the sequence monotonic.
	byName := map[string]obs.Span{}
	var prev int64
	for _, sp := range tr.Spans {
		if sp.Start < prev {
			t.Errorf("span %s starts at %d, before its predecessor at %d", sp.Name, sp.Start, prev)
		}
		prev = sp.Start
		if sp.End < sp.Start {
			t.Errorf("span %s ends (%d) before it starts (%d)", sp.Name, sp.End, sp.Start)
		}
		if _, dup := byName[sp.Name]; !dup {
			byName[sp.Name] = sp
		}
	}

	wantOrigin := map[string]string{
		"admit":   obs.OriginDaemon,
		"queue":   obs.OriginDaemon,
		"lease":   obs.OriginCoordinator,
		"decode":  obs.OriginWorker + ":wa",
		"solve":   obs.OriginWorker + ":wa",
		"persist": obs.OriginDaemon,
	}
	for name, origin := range wantOrigin {
		sp, ok := byName[name]
		if !ok {
			t.Fatalf("trace has no %q span (got %d spans: %+v)", name, len(tr.Spans), tr.Spans)
		}
		if sp.Origin != origin {
			t.Errorf("span %s origin %q, want %q", name, sp.Origin, origin)
		}
	}

	// The lifecycle order: each stage starts no earlier than its
	// predecessor, and the remote worker's clock folds into the same
	// axis (the solve must start within the lease and before persist).
	order := []string{"admit", "queue", "lease", "solve", "persist"}
	for i := 1; i < len(order); i++ {
		a, b := byName[order[i-1]], byName[order[i]]
		if b.Start < a.Start {
			t.Errorf("span %s (start %d) precedes %s (start %d)", order[i], b.Start, order[i-1], a.Start)
		}
	}
	if solve := byName["solve"]; solve.End > byName["persist"].End {
		t.Errorf("worker solve ends (%d) after the daemon persisted (%d)", solve.End, byName["persist"].End)
	}
}

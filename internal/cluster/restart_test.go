package cluster

// Crash-safety acceptance for ISSUE 10: a coordinator killed and restarted
// mid-lease must re-adopt the live lease (not re-queue the job), finish at
// the byte-identical optimal schedule without charging the retry budget,
// and serve one trace whose span timeline crosses the restart. The
// grace-expiry companion pins the other half of the budget rule: a lease
// whose worker never returns re-queues without a budget charge.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/procgraph"
	"repro/internal/server"
	"repro/internal/solverpool"
	"repro/internal/taskgraph"
)

// releaseGate blocks every solve until the test releases it, then solves
// optimally via astar. Unlike gateEngine it does not key on context
// cancellation: the solve must survive the coordinator's death and
// conclude only when the test says so.
type releaseGate struct {
	name string

	mu      sync.Mutex
	release chan struct{}
	started chan context.Context // receives each solve's context as it starts
}

func newReleaseGate(name string) *releaseGate {
	g := &releaseGate{name: name}
	g.reset()
	engine.Register(g)
	return g
}

func (g *releaseGate) Name() string { return g.name }

// reset re-arms the gate for a fresh run (`go test -count=N` reuses the
// registered instance).
func (g *releaseGate) reset() {
	g.mu.Lock()
	g.release = make(chan struct{})
	g.started = make(chan context.Context, 64)
	g.mu.Unlock()
}

func (g *releaseGate) gates() (release <-chan struct{}, started chan<- context.Context, startedRecv <-chan context.Context) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.release, g.started, g.started
}

func (g *releaseGate) releaseAll() {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-g.release:
	default:
		close(g.release)
	}
}

func (g *releaseGate) Solve(ctx context.Context, m *core.Model, cfg engine.Config) (*core.Result, error) {
	release, started, _ := g.gates()
	started <- ctx
	select {
	case <-release:
	case <-ctx.Done():
	}
	astar, err := engine.Lookup("astar")
	if err != nil {
		return nil, err
	}
	return astar.Solve(context.Background(), m, engine.Config{})
}

var (
	gateRestart    = newReleaseGate("gate-restart")
	gateExpiry     = newReleaseGate("gate-expiry")
	gateReregister = newReleaseGate("gate-reregister")
	gateLostAnswer = newReleaseGate("gate-lost-answer")
)

// restartTimings keep the failure detector inert (minute-scale lease and
// worker timeouts: the crash story must be told by adoption, not expiry)
// while polls and reports stay fast. MaxAttempts 1 turns any charge to the
// retry budget into a failed job, which is how these tests pin the
// adoption-is-free rule.
func restartTimings() Config {
	return Config{
		LeaseTTL:       time.Minute,
		WorkerTimeout:  time.Minute,
		MaxAttempts:    1,
		PollWait:       100 * time.Millisecond,
		ReportInterval: 25 * time.Millisecond,
		ReapInterval:   25 * time.Millisecond,
		AdoptGrace:     time.Minute,
	}
}

// openIncarnation builds one coordinator daemon over the shared store
// directory: durable store, lease journal wired, recovered jobs resumed.
func openIncarnation(t *testing.T, dir string, ccfg Config) (*server.Server, *Coordinator, int) {
	t.Helper()
	srv, err := server.Open(server.Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ccfg.Leases = srv.LeaseStore()
	coord := NewCoordinator(ccfg)
	srv.EnableCluster(coord)
	resumed := srv.ResumeRecovered()
	return srv, coord, resumed
}

// relisten rebinds the first incarnation's address so the worker's
// configured coordinator URL points at the second one.
func relisten(t *testing.T, addr string) net.Listener {
	t.Helper()
	var err error
	for i := 0; i < 50; i++ {
		var ln net.Listener
		if ln, err = net.Listen("tcp", addr); err == nil {
			return ln
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("rebinding %s: %v", addr, err)
	return nil
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, data)
	}
	return data
}

// normalizeResult zeroes the one wall-clock field (Stats.WallTime) so two
// result payloads for the same instance can be compared byte-for-byte.
func normalizeResult(t *testing.T, body []byte) []byte {
	t.Helper()
	var doc any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decoding result payload: %v", err)
	}
	var scrub func(v any)
	scrub = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			if _, ok := x["WallTime"]; ok {
				x["WallTime"] = 0
			}
			for _, child := range x {
				scrub(child)
			}
		case []any:
			for _, child := range x {
				scrub(child)
			}
		}
	}
	scrub(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCoordinatorRestartMidLeaseAdoption is the kill-and-restart
// acceptance run: coordinator dies mid-solve, its successor (same store
// directory, same address) re-adopts the journaled lease when the worker
// long-polls back, and the job concludes as if nothing happened —
// byte-identical optimal schedule, zero failovers, zero fresh leases,
// retry budget untouched (MaxAttempts=1 would fail the job otherwise),
// and one trace spanning both incarnations.
func TestCoordinatorRestartMidLeaseAdoption(t *testing.T) {
	gateRestart.reset()
	dir := t.TempDir()

	srv1, coord1, _ := openIncarnation(t, dir, restartTimings())
	ts1 := httptest.NewServer(srv1)
	addr := ts1.Listener.Addr().String()
	url := "http://" + addr
	startWorker(t, coord1, url, "survivor", 1)

	id := postJob(t, url, server.SubmitRequest{
		Graph:  paperGraphJSON(t),
		System: json.RawMessage(`"ring:3"`),
		Engine: gateRestart.name,
	})
	_, _, started := gateRestart.gates()
	select {
	case <-started:
		// The lease is journaled at grant time, strictly before the worker
		// sees the job — a started solve implies a durable lease record.
	case <-time.After(10 * time.Second):
		t.Fatal("the worker never started solving")
	}

	// Crash the coordinator: the listener dies and nothing is drained or
	// closed — srv1, coord1, and the blocked dispatch goroutine leak
	// exactly like a killed process's state would, with timeouts long
	// enough to keep the leaked reaper inert for the test's lifetime.
	ts1.Close()

	srv2, coord2, resumed := openIncarnation(t, dir, restartTimings())
	if resumed != 1 {
		t.Fatalf("ResumeRecovered = %d, want 1 (the mid-lease job)", resumed)
	}
	ts2 := httptest.NewUnstartedServer(srv2)
	ts2.Listener.Close()
	ts2.Listener = relisten(t, addr)
	ts2.Start()
	t.Cleanup(func() {
		gateRestart.releaseAll() // never leave a solve blocked on failure paths
		ts2.Close()
		srv2.Close()
		coord2.Close()
	})

	// The worker's next report 404s, it re-registers presenting the held
	// lease token, and the successor adopts it.
	waitFor(t, "lease adoption", func() bool { return coord2.Health().Adoptions == 1 })

	gateRestart.releaseAll()
	st := waitTerminal(t, url, id)
	if st.State != server.StateDone {
		t.Fatalf("job state = %s (error %q), want done via the adopted lease", st.State, st.Error)
	}
	if !st.Optimal || st.Length != 14 {
		t.Fatalf("adopted result length=%d optimal=%v, want the paper optimum 14/true", st.Length, st.Optimal)
	}
	if h := coord2.Health(); h.Adoptions != 1 || h.Failovers != 0 || h.Dispatched != 0 {
		t.Fatalf("successor health = %+v; the restart must re-adopt (no failover, no fresh lease)", h)
	}

	// Byte-identical to a plain local daemon solving the same instance
	// with the same (now-released) engine.
	local := server.New(server.Config{})
	tsL := httptest.NewServer(local)
	t.Cleanup(func() {
		tsL.Close()
		local.Close()
	})
	localID := postJob(t, tsL.URL, server.SubmitRequest{
		Graph:  paperGraphJSON(t),
		System: json.RawMessage(`"ring:3"`),
		Engine: gateRestart.name,
	})
	waitTerminal(t, tsL.URL, localID)
	want := normalizeResult(t, getBody(t, tsL.URL+"/v1/jobs/"+localID+"/result"))
	got := normalizeResult(t, getBody(t, url+"/v1/jobs/"+id+"/result"))
	if !bytes.Equal(got, want) {
		t.Fatalf("adopted result drifted from the local solve:\nlocal:   %s\nadopted: %s", want, got)
	}

	// One trace, both incarnations: the pre-crash daemon's admit/dispatch
	// spans were spilled into the durable job record, and the successor
	// appended the adopt and solve spans to the same timeline.
	var tr server.TraceResponse
	if code := getJSON(t, url+"/v1/jobs/"+id+"/trace", &tr); code != http.StatusOK {
		t.Fatalf("trace after restart: got %d, want 200", code)
	}
	seen := map[string]string{}
	for _, sp := range tr.Spans {
		seen[sp.Name] = sp.Attrs["outcome"]
	}
	for _, name := range []string{"admit", "dispatch", "adopt", "solve", "lease"} {
		if _, ok := seen[name]; !ok {
			t.Errorf("trace after restart is missing a %q span (have %v)", name, seen)
		}
	}
	if seen["adopt"] != "adopted" {
		t.Errorf("adopt span outcome = %q, want %q", seen["adopt"], "adopted")
	}
}

// TestAdoptedResultSurvivesSolveEndingMidRegistration pins the worker's
// side of an adoption racing the end of the solve: the successor adopts
// the lease on the worker's re-registration, but its answer is held back
// until the solve has returned and the worker has cancelled the job's
// context. The worker must still take the answer, move the lease to its
// fresh identity and deliver the result — not read the cancelled
// registration as a lost lease and leave the job running until the lease
// TTL. A decoy registered with the first incarnation makes the stale
// identity differ from the fresh one the successor hands out, so only a
// worker that applied the held answer can report under it.
func TestAdoptedResultSurvivesSolveEndingMidRegistration(t *testing.T) {
	gateReregister.reset()
	dir := t.TempDir()

	srv1, coord1, _ := openIncarnation(t, dir, restartTimings())
	decoy, err := json.Marshal(RegisterRequest{ProtocolVersion: ProtocolVersion, Name: "decoy", Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv1.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/workers/register", bytes.NewReader(decoy)))
	if rec.Code != http.StatusOK {
		t.Fatalf("decoy registration: got %d", rec.Code)
	}
	ts1 := httptest.NewServer(srv1)
	addr := ts1.Listener.Addr().String()
	url := "http://" + addr
	startWorker(t, coord1, url, "survivor", 1)

	id := postJob(t, url, server.SubmitRequest{
		Graph:  paperGraphJSON(t),
		System: json.RawMessage(`"ring:3"`),
		Engine: gateReregister.name,
	})
	_, _, started := gateReregister.gates()
	var solveCtx context.Context
	select {
	case solveCtx = <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the worker never started solving")
	}
	ts1.Close()

	srv2, coord2, resumed := openIncarnation(t, dir, restartTimings())
	if resumed != 1 {
		t.Fatalf("ResumeRecovered = %d, want 1 (the mid-lease job)", resumed)
	}

	// The first worker registration reaching the successor is served in
	// full (the lease is adopted), then the solve is released and the
	// answer held until the worker has cancelled the solve's context.
	var held atomic.Bool
	holder := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/workers/register" || !held.CompareAndSwap(false, true) {
			srv2.ServeHTTP(w, r)
			return
		}
		answer := httptest.NewRecorder()
		srv2.ServeHTTP(answer, r)
		gateReregister.releaseAll()
		select {
		case <-solveCtx.Done():
		case <-time.After(10 * time.Second):
			t.Error("the solve's context was never cancelled after the release")
		}
		for k, v := range answer.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(answer.Code)
		w.Write(answer.Body.Bytes())
	})
	ts2 := httptest.NewUnstartedServer(holder)
	ts2.Listener.Close()
	ts2.Listener = relisten(t, addr)
	ts2.Start()
	t.Cleanup(func() {
		gateReregister.releaseAll()
		ts2.Close()
		srv2.Close()
		coord2.Close()
	})

	st := waitTerminal(t, url, id)
	if st.State != server.StateDone {
		t.Fatalf("job state = %s (error %q), want done via the adopted lease", st.State, st.Error)
	}
	if !st.Optimal || st.Length != 14 {
		t.Fatalf("adopted result length=%d optimal=%v, want the paper optimum 14/true", st.Length, st.Optimal)
	}
	if h := coord2.Health(); h.Adoptions != 1 || h.Failovers != 0 || h.Dispatched != 0 {
		t.Fatalf("successor health = %+v; the held registration must re-adopt (no failover, no fresh lease)", h)
	}
}

// TestAdoptionSurvivesLostRegistrationAnswer pins that adoption is
// idempotent per lease token. The first worker registration reaching the
// restarted coordinator adopts the lease, but its answer is dropped (the
// worker sees a 503), so the worker registers again under a fresh
// identity and presents the same token. That registration must re-bind
// the lease to the new identity, not refuse it as "no adoptable lease":
// the solve keeps running and its result is delivered, with one adoption,
// no failover, no fresh lease, and the retry budget (MaxAttempts 1)
// untouched.
func TestAdoptionSurvivesLostRegistrationAnswer(t *testing.T) {
	gateLostAnswer.reset()
	dir := t.TempDir()

	srv1, coord1, _ := openIncarnation(t, dir, restartTimings())
	ts1 := httptest.NewServer(srv1)
	addr := ts1.Listener.Addr().String()
	url := "http://" + addr
	startWorker(t, coord1, url, "survivor", 1)

	id := postJob(t, url, server.SubmitRequest{
		Graph:  paperGraphJSON(t),
		System: json.RawMessage(`"ring:3"`),
		Engine: gateLostAnswer.name,
	})
	_, _, started := gateLostAnswer.gates()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the worker never started solving")
	}
	ts1.Close()

	srv2, coord2, resumed := openIncarnation(t, dir, restartTimings())
	if resumed != 1 {
		t.Fatalf("ResumeRecovered = %d, want 1 (the mid-lease job)", resumed)
	}

	// The first registration is served in full and its answer dropped; the
	// solve is released once the second one has been answered.
	var registrations atomic.Int32
	holder := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/workers/register" {
			srv2.ServeHTTP(w, r)
			return
		}
		switch registrations.Add(1) {
		case 1:
			srv2.ServeHTTP(httptest.NewRecorder(), r)
			http.Error(w, "answer lost", http.StatusServiceUnavailable)
		case 2:
			srv2.ServeHTTP(w, r)
			gateLostAnswer.releaseAll()
		default:
			srv2.ServeHTTP(w, r)
		}
	})
	ts2 := httptest.NewUnstartedServer(holder)
	ts2.Listener.Close()
	ts2.Listener = relisten(t, addr)
	ts2.Start()
	t.Cleanup(func() {
		gateLostAnswer.releaseAll()
		ts2.Close()
		srv2.Close()
		coord2.Close()
	})

	st := waitTerminal(t, url, id)
	if st.State != server.StateDone {
		t.Fatalf("job state = %s (error %q), want done via the re-bound lease", st.State, st.Error)
	}
	if !st.Optimal || st.Length != 14 {
		t.Fatalf("adopted result length=%d optimal=%v, want the paper optimum 14/true", st.Length, st.Optimal)
	}
	if n := registrations.Load(); n < 2 {
		t.Fatalf("%d worker registrations reached the successor, want the dropped one and its retry", n)
	}
	if h := coord2.Health(); h.Adoptions != 1 || h.Failovers != 0 || h.Dispatched != 0 {
		t.Fatalf("successor health = %+v; the retried registration must re-bind the adopted lease (no failover, no fresh lease)", h)
	}
}

// TestAdoptionGraceExpiryDoesNotChargeBudget pins the other budget rule:
// a recovered lease whose worker never re-registers is re-queued when the
// grace window lapses WITHOUT charging the job's retry budget. With
// MaxAttempts=1 a budgeted expiry would fail the job on the spot
// ("gave out after 1 failed attempts"); instead it must fall back and
// finish at the optimum.
func TestAdoptionGraceExpiryDoesNotChargeBudget(t *testing.T) {
	gateExpiry.reset()
	dir := t.TempDir()

	srv1, coord1, _ := openIncarnation(t, dir, restartTimings())
	ts1 := httptest.NewServer(srv1)
	addr := ts1.Listener.Addr().String()
	url := "http://" + addr
	w := startWorker(t, coord1, url, "casualty", 1)

	id := postJob(t, url, server.SubmitRequest{
		Graph:  paperGraphJSON(t),
		System: json.RawMessage(`"ring:3"`),
		Engine: gateExpiry.name,
	})
	_, _, started := gateExpiry.gates()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the worker never started solving")
	}

	// Coordinator and worker die together; nobody will reclaim the lease.
	ts1.Close()
	w.Kill()
	gateExpiry.releaseAll() // the successor's fallback solve must not block

	cfg := restartTimings()
	cfg.AdoptGrace = 200 * time.Millisecond
	srv2, coord2, resumed := openIncarnation(t, dir, cfg)
	if resumed != 1 {
		t.Fatalf("ResumeRecovered = %d, want 1", resumed)
	}
	ts2 := httptest.NewUnstartedServer(srv2)
	ts2.Listener.Close()
	ts2.Listener = relisten(t, addr)
	ts2.Start()
	t.Cleanup(func() {
		ts2.Close()
		srv2.Close()
		coord2.Close()
	})

	// The grace window lapses unclaimed; the unbudgeted re-queue finds no
	// eligible worker and hands the job to the successor's local pool,
	// which finishes it — impossible if the expiry had charged the budget.
	st := waitTerminal(t, url, id)
	if st.State != server.StateDone {
		t.Fatalf("job state = %s (error %q), want done after an uncharged grace expiry", st.State, st.Error)
	}
	if !st.Optimal || st.Length != 14 {
		t.Fatalf("result length=%d optimal=%v, want the paper optimum 14/true", st.Length, st.Optimal)
	}
	if h := coord2.Health(); h.Adoptions != 0 {
		t.Fatalf("successor health = %+v; nothing should have been adopted", h)
	}
	var tr server.TraceResponse
	if code := getJSON(t, url+"/v1/jobs/"+id+"/trace", &tr); code != http.StatusOK {
		t.Fatalf("trace after restart: got %d, want 200", code)
	}
	for _, sp := range tr.Spans {
		if sp.Name == "adopt" && sp.Attrs["outcome"] == "expired" {
			return
		}
	}
	t.Errorf("trace lacks an adopt span with outcome=expired; spans: %+v", tr.Spans)
}

// TestLeaseCarriesAdmissionBytes: with a file-backed store the lease
// ships the instance bytes the store encoded for its WAL at admission,
// not a second encoding; the leased graph and system equal the WAL
// record's byte for byte and decode to the submitted instance.
func TestLeaseCarriesAdmissionBytes(t *testing.T) {
	dir := t.TempDir()
	srv, coord, _ := openIncarnation(t, dir, restartTimings())
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		coord.Close()
	})
	post := func(path string, body, out any) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %s: %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	// A registered worker with a free slot keeps the job off the daemon's
	// local slots (placement is remote-first).
	var reg RegisterResponse
	post("/v1/workers/register", RegisterRequest{ProtocolVersion: ProtocolVersion, Name: "probe", Capacity: 1, Engines: []string{"astar"}}, &reg)
	var sub server.SubmitResponse
	post("/v1/jobs", server.SubmitRequest{Graph: paperGraphJSON(t), System: json.RawMessage(`"ring:3"`)}, &sub)
	var lease LeaseResponse
	post("/v1/workers/lease", LeaseRequest{ProtocolVersion: ProtocolVersion, WorkerID: reg.WorkerID, WaitMS: 5000}, &lease)
	if lease.Job == nil || lease.Job.ID != sub.ID {
		t.Fatalf("lease = %+v, want job %s", lease.Job, sub.ID)
	}

	wal, err := os.ReadFile(filepath.Join(dir, "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var walGraph, walSystem json.RawMessage
	for _, line := range bytes.Split(wal, []byte("\n")) {
		var rec struct {
			ID     string          `json:"id"`
			Graph  json.RawMessage `json:"graph"`
			System json.RawMessage `json:"system"`
		}
		if json.Unmarshal(line, &rec) == nil && rec.ID == sub.ID && rec.Graph != nil {
			walGraph, walSystem = rec.Graph, rec.System
		}
	}
	if walGraph == nil || walSystem == nil {
		t.Fatalf("no WAL record of %s carries the instance:\n%s", sub.ID, wal)
	}
	for _, c := range []struct {
		name        string
		leased, wal json.RawMessage
	}{{"graph", lease.Job.Graph, walGraph}, {"system", lease.Job.System, walSystem}} {
		if !bytes.Equal(c.leased, c.wal) {
			t.Fatalf("leased %s differs from the WAL record's:\nlease: %s\nwal:   %s", c.name, c.leased, c.wal)
		}
	}
	g, err := taskgraph.FromJSON(lease.Job.Graph)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := procgraph.FromJSON(lease.Job.System)
	if err != nil {
		t.Fatal(err)
	}
	wantG, wantS := solverpool.InstanceDigest(gen.PaperExample(), procgraph.Ring(3))
	if gd, sd := solverpool.InstanceDigest(g, sys); gd != wantG || sd != wantS {
		t.Fatal("the leased bytes decode to a different instance than the one submitted")
	}
}

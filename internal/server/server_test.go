package server

// httptest coverage for every endpoint docs/API.md documents: the
// submit → poll → result round-trip, portfolio submission, streaming,
// cancellation mid-solve, shutdown, malformed-request 400s, and the job
// store's capacity/TTL eviction.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/procgraph"
	"repro/internal/stg"
	"repro/internal/taskgraph"
)

// blockingEngine is a registry engine that parks until its context is
// cancelled, then returns a valid (non-optimal) schedule — a deterministic
// stand-in for a long search, so cancellation and shutdown tests never
// race a real solver's completion.
type blockingEngine struct {
	running chan string // receives the instance name when a solve starts
}

var testBlocker = &blockingEngine{running: make(chan string, 64)}

func init() { engine.Register(testBlocker) }

func (b *blockingEngine) Name() string { return "test-block" }

func (b *blockingEngine) Solve(ctx context.Context, m *core.Model, cfg engine.Config) (*core.Result, error) {
	b.running <- m.G.Name()
	<-ctx.Done()
	astar, err := engine.Lookup("astar")
	if err != nil {
		return nil, err
	}
	res, err := astar.Solve(context.Background(), m, engine.Config{})
	if err != nil {
		return nil, err
	}
	res.Optimal = false
	res.BoundFactor = 0
	return res, nil
}

// newTestServer returns a server plus its base URL, torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts.URL
}

// paperText is the Figure 1 worked example in wire text form; its optimal
// length on ring:3 is 14.
func paperText(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := taskgraph.Format(&buf, gen.PaperExample()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func postJob(t *testing.T, base string, req SubmitRequest) SubmitResponse {
	t.Helper()
	resp := postJobRaw(t, base, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := json.Marshal(req)
		t.Fatalf("submit %s: got %d", body, resp.StatusCode)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.State != StateQueued {
		t.Fatalf("submit response = %+v", sub)
	}
	return sub
}

func postJobRaw(t *testing.T, base string, req SubmitRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getStatus(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: got %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal polls status until the job leaves queued/running.
func waitTerminal(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		if terminal(st.State) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

func waitState(t *testing.T, base, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		if st.State == want {
			return st
		}
		if terminal(st.State) && !terminal(want) {
			t.Fatalf("job %s reached %s while waiting for %s", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
	return JobStatus{}
}

// TestSubmitPollResultRoundTrip drives the happy path end to end and
// validates the returned schedule against the submitted instance — the
// acceptance check that the daemon's schedules pass internal/schedule
// validation.
func TestSubmitPollResultRoundTrip(t *testing.T) {
	_, base := newTestServer(t, Config{})
	sub := postJob(t, base, SubmitRequest{
		GraphText: paperText(t),
		System:    json.RawMessage(`"ring:3"`),
		Engine:    "astar",
	})
	st := waitTerminal(t, base, sub.ID)
	if st.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", st.State, st.Error)
	}
	if !st.Optimal || st.Length != 14 {
		t.Fatalf("status length=%d optimal=%v, want 14/true", st.Length, st.Optimal)
	}
	if st.Progress.Expanded == 0 {
		t.Fatalf("progress.expanded = 0, want > 0 after a real search")
	}

	resp, err := http.Get(base + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: got %d", resp.StatusCode)
	}
	var res JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Engine != "astar" || !res.Optimal || res.Length != 14 {
		t.Fatalf("result = engine %s length %d optimal %v", res.Engine, res.Length, res.Optimal)
	}

	// Rebuild the schedule client-side and validate it for real.
	sched, err := res.Schedule.ToSchedule(gen.PaperExample(), procgraph.Ring(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(); err != nil {
		t.Fatalf("returned schedule invalid: %v", err)
	}
	if sched.Length != 14 {
		t.Fatalf("rebuilt length = %d, want 14", sched.Length)
	}

	// The Gantt rendering serves as text.
	resp2, err := http.Get(base + "/v1/jobs/" + sub.ID + "/result?format=gantt")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var gantt bytes.Buffer
	gantt.ReadFrom(resp2.Body)
	if resp2.StatusCode != http.StatusOK || !strings.Contains(gantt.String(), "length=14") {
		t.Fatalf("gantt: %d %q", resp2.StatusCode, gantt.String())
	}
}

// TestSubmitJSONGraphAndSystemObject exercises the other instance wire
// forms: a taskgraph JSON object plus a full procgraph JSON system.
func TestSubmitJSONGraphAndSystemObject(t *testing.T) {
	_, base := newTestServer(t, Config{})
	graphJSON, err := json.Marshal(gen.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	sysJSON, err := json.Marshal(procgraph.Ring(3))
	if err != nil {
		t.Fatal(err)
	}
	sub := postJob(t, base, SubmitRequest{Graph: graphJSON, System: sysJSON})
	st := waitTerminal(t, base, sub.ID)
	if st.State != StateDone || st.Length != 14 {
		t.Fatalf("state=%s length=%d, want done/14", st.State, st.Length)
	}
}

// TestNativeEngineJob drives the multi-core work-stealing engine through
// the job API with an explicit workers count and pins the proven optimum:
// the wire `workers` knob must reach native.Options and the result must
// carry the exact certificate (BoundFactor 1).
func TestNativeEngineJob(t *testing.T) {
	_, base := newTestServer(t, Config{})
	sub := postJob(t, base, SubmitRequest{
		GraphText: paperText(t),
		System:    json.RawMessage(`"ring:3"`),
		Engine:    "native",
		Config:    JobConfig{Workers: 2},
	})
	st := waitTerminal(t, base, sub.ID)
	if st.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", st.State, st.Error)
	}
	resp, err := http.Get(base + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Engine != "native" || !res.Optimal || res.Length != 14 || res.BoundFactor != 1 {
		t.Fatalf("result = engine %s length %d optimal %v bound %g, want native/14/true/1",
			res.Engine, res.Length, res.Optimal, res.BoundFactor)
	}
}

// TestPortfolioSubmit races three engines through the daemon and checks
// the winner's schedule plus the losers' partial stats.
func TestPortfolioSubmit(t *testing.T) {
	_, base := newTestServer(t, Config{})
	sub := postJob(t, base, SubmitRequest{
		GraphText: paperText(t),
		System:    json.RawMessage(`"ring:3"`),
		Engines:   []string{"astar", "dfbb", "bnb"},
	})
	st := waitTerminal(t, base, sub.ID)
	if st.State != StateDone {
		t.Fatalf("state = %s (error %q)", st.State, st.Error)
	}
	resp, err := http.Get(base + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Engine == "" || !res.Optimal || res.Length != 14 {
		t.Fatalf("portfolio result = %+v", res)
	}
	if len(res.Losers)+len(res.Errs) != 2 {
		t.Fatalf("want 2 losers/errs, got losers=%v errs=%v", res.Losers, res.Errs)
	}
	sched, err := res.Schedule.ToSchedule(gen.PaperExample(), procgraph.Ring(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(); err != nil {
		t.Fatalf("portfolio schedule invalid: %v", err)
	}
}

// TestCancelMidSolve submits a job on the blocking engine, waits until it
// is really running, cancels it over the API, and requires a prompt
// cancelled state that kept the engine's incumbent schedule.
func TestCancelMidSolve(t *testing.T) {
	_, base := newTestServer(t, Config{})
	sub := postJob(t, base, SubmitRequest{
		GraphText: paperText(t),
		System:    json.RawMessage(`"ring:3"`),
		Engine:    "test-block",
	})
	waitState(t, base, sub.ID, StateRunning)
	<-testBlocker.running // the engine is inside Solve now

	// A still-running job has no result yet: 409.
	r0, err := http.Get(base + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	r0.Body.Close()
	if r0.StatusCode != http.StatusConflict {
		t.Fatalf("result while running: got %d, want 409", r0.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: got %d", resp.StatusCode)
	}

	st := waitState(t, base, sub.ID, StateCancelled)
	if st.Optimal {
		t.Fatalf("cancelled job reports optimal")
	}
	// The interrupted engine handed back its incumbent: result is served.
	r2, err := http.Get(base + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("result after cancel: got %d", r2.StatusCode)
	}
	var res JobResult
	if err := json.NewDecoder(r2.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.State != StateCancelled || res.Optimal {
		t.Fatalf("result after cancel = state %s optimal %v", res.State, res.Optimal)
	}

	// Cancelling again is an idempotent 200.
	req2, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+sub.ID, nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second cancel: got %d", resp2.StatusCode)
	}
}

// TestCancelWhileQueued fills every worker slot with blocking jobs, queues
// one more, cancels it before it ever runs, and checks it terminates
// cancelled without a result.
func TestCancelWhileQueued(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1})
	blocker := postJob(t, base, SubmitRequest{
		GraphText: paperText(t),
		System:    json.RawMessage(`"ring:3"`),
		Engine:    "test-block",
	})
	waitState(t, base, blocker.ID, StateRunning)
	<-testBlocker.running

	queued := postJob(t, base, SubmitRequest{
		GraphText: paperText(t),
		System:    json.RawMessage(`"ring:3"`),
		Engine:    "astar",
	})
	if st := getStatus(t, base, queued.ID); st.State != StateQueued {
		t.Fatalf("second job state = %s, want queued behind the blocker", st.State)
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := waitState(t, base, queued.ID, StateCancelled)
	if st.Length != 0 {
		t.Fatalf("queued-cancelled job has a schedule: %+v", st)
	}
	r2, err := http.Get(base + "/v1/jobs/" + queued.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusConflict {
		t.Fatalf("result of never-run job: got %d, want 409", r2.StatusCode)
	}

	// Free the worker so cleanup is prompt.
	reqB, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+blocker.ID, nil)
	respB, err := http.DefaultClient.Do(reqB)
	if err != nil {
		t.Fatal(err)
	}
	respB.Body.Close()
	waitTerminal(t, base, blocker.ID)
}

// TestHealthActiveJobsCounter follows /v1/healthz's active-job count
// through cancellation: one running and one queued job count 2, and
// cancelling both brings active_jobs (and jobs) back to 0 while both stay
// retained. A submit that loses the race against shutdown is admitted and
// then removed; it must leave the counts where they were.
func TestHealthActiveJobsCounter(t *testing.T) {
	srv, base := newTestServer(t, Config{Workers: 1})
	running := postJob(t, base, SubmitRequest{
		GraphText: paperText(t),
		System:    json.RawMessage(`"ring:3"`),
		Engine:    "test-block",
	})
	waitState(t, base, running.ID, StateRunning)
	<-testBlocker.running
	queued := postJob(t, base, SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`)})
	if st := getStatus(t, base, queued.ID); st.State != StateQueued {
		t.Fatalf("second job state = %s, want queued behind the blocker", st.State)
	}
	if h := getHealth(t, base); h.ActiveJobs != 2 || h.Jobs != 2 {
		t.Fatalf("healthz with one running and one queued job: active_jobs %d, jobs %d; want 2, 2", h.ActiveJobs, h.Jobs)
	}

	for _, id := range []string{queued.ID, running.ID} {
		req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		waitState(t, base, id, StateCancelled)
	}
	h := getHealth(t, base)
	if h.ActiveJobs != 0 || h.Jobs != 0 || h.RetainedJobs != 2 {
		t.Fatalf("healthz after cancelling both: active_jobs %d, jobs %d, retained_jobs %d; want 0, 0, 2",
			h.ActiveJobs, h.Jobs, h.RetainedJobs)
	}

	// Lose the shutdown race: hold closeMu so the submit parks after its
	// store entry, then start shutting down before letting it see that.
	body := mustJSON(t, SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`)})
	srv.closeMu.Lock()
	result := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			result <- 0
			return
		}
		resp.Body.Close()
		result <- resp.StatusCode
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.store.count() != 3 {
		if time.Now().After(deadline) {
			srv.closeMu.Unlock()
			t.Fatal("the racing submit never reached the store")
		}
		time.Sleep(time.Millisecond)
	}
	srv.baseCancel()
	srv.closeMu.Unlock()
	if code := <-result; code != http.StatusServiceUnavailable {
		t.Fatalf("submit that lost the shutdown race: got %d, want 503", code)
	}
	if a, n := srv.store.active(), srv.store.count(); a != 0 || n != 2 {
		t.Fatalf("after the removed submit: active %d, retained %d; want 0, 2", a, n)
	}
}

// TestServerCloseCancelsJobs starts a blocking job and shuts the server
// down; Close must return promptly (the worker was freed) and the job must
// read cancelled.
func TestServerCloseCancelsJobs(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	sub := postJob(t, ts.URL, SubmitRequest{
		GraphText: paperText(t),
		System:    json.RawMessage(`"ring:3"`),
		Engine:    "test-block",
	})
	waitState(t, ts.URL, sub.ID, StateRunning)
	<-testBlocker.running

	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain the blocked worker")
	}
	if st := getStatus(t, ts.URL, sub.ID); st.State != StateCancelled {
		t.Fatalf("after shutdown state = %s, want cancelled", st.State)
	}
	// New submissions are turned away.
	resp := postJobRaw(t, ts.URL, SubmitRequest{GraphText: paperText(t)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: got %d, want 503", resp.StatusCode)
	}
}

// TestEventsStream reads the NDJSON progress stream of a short job and
// requires it to end with a terminal snapshot.
func TestEventsStream(t *testing.T) {
	_, base := newTestServer(t, Config{StreamInterval: 10 * time.Millisecond})
	sub := postJob(t, base, SubmitRequest{
		GraphText: paperText(t),
		System:    json.RawMessage(`"ring:3"`),
	})
	resp, err := http.Get(base + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type = %q", ct)
	}
	var last JobStatus
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 || !terminal(last.State) {
		t.Fatalf("stream ended after %d lines in state %q", lines, last.State)
	}
}

// TestMalformedSubmits walks the 400 surface: bad JSON, missing graph,
// conflicting graph sources, cyclic graphs, bad systems, unknown engines,
// oversized instances.
func TestMalformedSubmits(t *testing.T) {
	_, base := newTestServer(t, Config{})
	text := paperText(t)
	cases := []struct {
		name string
		body string
	}{
		{"not json", `{"graph_text": `},
		{"unknown field", `{"graf": "x"}`},
		{"no graph", `{"engine": "astar"}`},
		{"two graph sources", mustJSON(t, SubmitRequest{GraphText: text, GraphSTG: "x"})},
		{"bad graph text", `{"graph_text": "graph g\nnode 0\n"}`},
		{"cyclic graph", `{"graph_text": "graph g\nnode 0 1\nnode 1 1\nedge 0 1 0\nedge 1 0 0\n"}`},
		{"bad system spec", mustJSON(t, SubmitRequest{GraphText: text, System: json.RawMessage(`"klein-bottle:4"`)})},
		{"disconnected system", mustJSON(t, SubmitRequest{GraphText: text, System: json.RawMessage(`{"procs":2,"links":[]}`)})},
		{"unknown engine", mustJSON(t, SubmitRequest{GraphText: text, Engine: "simplex"})},
		{"unknown portfolio entrant", mustJSON(t, SubmitRequest{GraphText: text, Engines: []string{"astar", "simplex"}})},
	}
	for _, tc := range cases {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %d (%s), want 400", tc.name, resp.StatusCode, e.Message)
		}
		if e.Message == "" {
			t.Errorf("%s: 400 without an error message", tc.name)
		}
		if e.Code != ErrCodeBadRequest {
			t.Errorf("%s: code %q, want %q", tc.name, e.Code, ErrCodeBadRequest)
		}
	}

	// Unknown job IDs are 404 on every job endpoint.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/events"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: got %d, want 404", path, resp.StatusCode)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestEnginesAndHealth covers the two introspection endpoints.
func TestEnginesAndHealth(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 3})
	resp, err := http.Get(base + "/v1/engines")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var engines []EngineInfo
	if err := json.NewDecoder(resp.Body).Decode(&engines); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, e := range engines {
		found[e.Name] = true
	}
	for _, want := range []string{"astar", "aeps", "dfbb", "ida", "bnb", "parallel"} {
		if !found[want] {
			t.Errorf("engines listing misses %q", want)
		}
	}

	r2, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var h Health
	if err := json.NewDecoder(r2.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 3 {
		t.Fatalf("health = %+v", h)
	}
}

// TestListJobs submits two jobs and checks both appear, oldest first.
func TestListJobs(t *testing.T) {
	_, base := newTestServer(t, Config{})
	a := postJob(t, base, SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`)})
	b := postJob(t, base, SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`), Engine: "dfbb"})
	waitTerminal(t, base, a.ID)
	waitTerminal(t, base, b.ID)
	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list JobList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 || list.Jobs[0].ID != a.ID || list.Jobs[1].ID != b.ID {
		t.Fatalf("list = %+v", list.Jobs)
	}
}

// TestStoreCapacityEviction fills a tiny store with finished jobs and
// checks the oldest terminal job makes room for a new submission, while a
// store full of active jobs rejects with 503.
func TestStoreCapacityEviction(t *testing.T) {
	srv, base := newTestServer(t, Config{StoreCap: 2, Workers: 4})
	a := postJob(t, base, SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`)})
	waitTerminal(t, base, a.ID)
	b := postJob(t, base, SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`)})
	waitTerminal(t, base, b.ID)

	// Store is at cap with two terminal jobs; the next submit evicts a.
	c := postJob(t, base, SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`)})
	waitTerminal(t, base, c.ID)
	resp, err := http.Get(base + "/v1/jobs/" + a.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job still served: %d", resp.StatusCode)
	}

	// Fill the store with active (blocking) jobs: submissions now bounce.
	d := postJob(t, base, SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`), Engine: "test-block"})
	e := postJob(t, base, SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`), Engine: "test-block"})
	waitState(t, base, d.ID, StateRunning)
	waitState(t, base, e.ID, StateRunning)
	<-testBlocker.running
	<-testBlocker.running
	r2 := postJobRaw(t, base, SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`)})
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit into a full active store: got %d, want 503", r2.StatusCode)
	}
	_ = srv
}

// TestStoreTTLEviction drives the sweep with an injected clock: terminal
// jobs older than the TTL vanish on the next access.
func TestStoreTTLEviction(t *testing.T) {
	srv, base := newTestServer(t, Config{TTL: time.Minute})
	a := postJob(t, base, SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`)})
	waitTerminal(t, base, a.ID)

	// Jump the store's clock past the TTL.
	ms := srv.store.(*memStore)
	ms.mu.Lock()
	ms.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	ms.mu.Unlock()

	resp, err := http.Get(base + "/v1/jobs/" + a.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("TTL-expired job still served: %d", resp.StatusCode)
	}
	if n := srv.store.count(); n != 0 {
		t.Fatalf("store population after sweep = %d, want 0", n)
	}
}

// TestModelMemoizationAcrossJobs submits the same instance twice and
// checks the second submission hit the pool's model cache.
func TestModelMemoizationAcrossJobs(t *testing.T) {
	srv, base := newTestServer(t, Config{})
	text := paperText(t)
	a := postJob(t, base, SubmitRequest{GraphText: text, System: json.RawMessage(`"ring:3"`)})
	waitTerminal(t, base, a.ID)
	b := postJob(t, base, SubmitRequest{GraphText: text, System: json.RawMessage(`"ring:3"`), Engine: "dfbb"})
	waitTerminal(t, base, b.ID)
	ps := srv.pool.Stats()
	if ps.ModelsBuilt != 1 || ps.ModelHits < 1 {
		t.Fatalf("pool stats = %+v, want one build and at least one hit", ps)
	}
}

// TestBudgetedJobCompletesNonOptimal checks a budget cutoff lands as done
// (not cancelled, not failed) with Optimal=false — the boundary between
// budget exhaustion and cancellation semantics.
func TestBudgetedJobCompletesNonOptimal(t *testing.T) {
	_, base := newTestServer(t, Config{})
	g, err := gen.Random(gen.RandomConfig{V: 18, CCR: 1.0, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := taskgraph.Format(&buf, g); err != nil {
		t.Fatal(err)
	}
	sub := postJob(t, base, SubmitRequest{
		GraphText: buf.String(),
		System:    json.RawMessage(`"complete:4"`),
		Config:    JobConfig{MaxExpanded: 5},
	})
	st := waitTerminal(t, base, sub.ID)
	if st.State != StateDone {
		t.Fatalf("budget-cut job state = %s (error %q), want done", st.State, st.Error)
	}
	if st.Optimal {
		t.Fatalf("budget-cut job claims optimality after 5 expansions")
	}
}

// TestBudgetCutBnbJob is a regression test: bnb used to return a nil
// schedule when cut off before its first complete schedule, which crashed
// the job goroutine (and the daemon) in schedulePayload. The engine now
// falls back to list scheduling; the job must land done/non-optimal with
// a servable schedule.
func TestBudgetCutBnbJob(t *testing.T) {
	_, base := newTestServer(t, Config{})
	g, err := gen.Random(gen.RandomConfig{V: 16, CCR: 1.0, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := taskgraph.Format(&buf, g); err != nil {
		t.Fatal(err)
	}
	sub := postJob(t, base, SubmitRequest{
		GraphText: buf.String(),
		System:    json.RawMessage(`"complete:4"`),
		Engine:    "bnb",
		Config:    JobConfig{MaxExpanded: 1},
	})
	st := waitTerminal(t, base, sub.ID)
	if st.State != StateDone || st.Optimal {
		t.Fatalf("budget-cut bnb job: state=%s optimal=%v, want done/false", st.State, st.Optimal)
	}
	resp, err := http.Get(base + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result of budget-cut bnb job: got %d", resp.StatusCode)
	}
	var res JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	sched, err := res.Schedule.ToSchedule(g, procgraph.Complete(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(); err != nil {
		t.Fatalf("fallback schedule invalid: %v", err)
	}
}

// fakeDispatcher stubs the cluster hook: it claims every job with a
// canned outcome, and reports a fixed capacity for the aggregate views.
// Its local slots are never started — every job resolves in Dispatch.
type fakeDispatcher struct {
	res        *JobResult
	errMessage string
	capacity   int
}

func (d *fakeDispatcher) Dispatch(ctx context.Context, job DispatchJob) (*JobResult, string) {
	job.Started()
	job.Progress.Record(core.ProgressSnapshot{Expanded: 42, Generated: 99})
	res := d.res
	if res != nil {
		cp := *res
		cp.ID = job.ID
		res = &cp
	}
	return res, d.errMessage
}

func (d *fakeDispatcher) Capacity() int { return d.capacity }
func (d *fakeDispatcher) Health() *ClusterHealth {
	return &ClusterHealth{Workers: 1, Capacity: d.capacity}
}
func (d *fakeDispatcher) EngineWorkers() map[string]int          { return map[string]int{"astar": 1} }
func (d *fakeDispatcher) Handler() http.Handler                  { return http.NotFoundHandler() }
func (d *fakeDispatcher) ServeLocal(slots int, solve LocalSolve) {}

// TestDispatcherHandlesJob wires a fake cluster backend that claims every
// job: the job must finish with the dispatcher's result, its progress must
// reflect the reported counters, and /healthz and /engines must carry the
// cluster views and aggregate capacity.
func TestDispatcherHandlesJob(t *testing.T) {
	srv, base := newTestServer(t, Config{Workers: 2})
	srv.EnableCluster(&fakeDispatcher{
		capacity: 5,
		res: &JobResult{
			Engine: "astar", Length: 14, Optimal: true, BoundFactor: 1,
			Schedule: SchedulePayload{Length: 14},
		},
	})
	sub := postJob(t, base, SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`)})
	st := waitTerminal(t, base, sub.ID)
	if st.State != StateDone || st.Length != 14 || !st.Optimal {
		t.Fatalf("dispatched job = %+v", st)
	}
	if st.Progress.Expanded != 42 || st.Progress.Generated != 99 {
		t.Fatalf("progress = %+v, want the dispatcher-reported 42/99", st.Progress)
	}

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Capacity != 2+5 || h.Cluster == nil || h.Cluster.Capacity != 5 {
		t.Fatalf("health = %+v, want capacity 7 with a cluster view", h)
	}

	r2, err := http.Get(base + "/v1/engines")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var engines []EngineInfo
	if err := json.NewDecoder(r2.Body).Decode(&engines); err != nil {
		t.Fatal(err)
	}
	for _, e := range engines {
		if e.Name == "astar" && e.ClusterWorkers != 1 {
			t.Fatalf("astar cluster_workers = %d, want 1", e.ClusterWorkers)
		}
	}
}

// TestDispatcherFailedJob: a dispatcher error message lands the job in
// the failed state with that reason.
func TestDispatcherFailedJob(t *testing.T) {
	srv, base := newTestServer(t, Config{})
	srv.EnableCluster(&fakeDispatcher{capacity: 1, errMessage: "cluster: job gave out after 3 attempts: boom"})
	sub := postJob(t, base, SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`)})
	st := waitTerminal(t, base, sub.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "3 attempts") {
		t.Fatalf("failed dispatch = %+v", st)
	}
}

// readEvents reads NDJSON statuses from an open /events body until a
// terminal line, maxLines, or stream end; it returns the statuses seen.
func readEvents(t *testing.T, body io.Reader, maxLines int) []JobStatus {
	t.Helper()
	var out []JobStatus
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		var st JobStatus
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		out = append(out, st)
		if terminal(st.State) || len(out) >= maxLines {
			break
		}
	}
	return out
}

// TestEventsResumeAfterDrop drives the Last-Event-ID contract: a watcher
// that drops mid-stream reconnects with its last seen sequence number and
// receives strictly larger ones (the counter lives in the job store), with
// the resumed stream still ending in a terminal snapshot.
func TestEventsResumeAfterDrop(t *testing.T) {
	_, base := newTestServer(t, Config{StreamInterval: 5 * time.Millisecond})
	sub := postJob(t, base, SubmitRequest{
		GraphText: paperText(t),
		System:    json.RawMessage(`"ring:3"`),
		Engine:    "test-block",
	})
	waitState(t, base, sub.ID, StateRunning)
	<-testBlocker.running

	// First connection: take two snapshots, then drop the stream.
	resp, err := http.Get(base + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	first := readEvents(t, resp.Body, 2)
	resp.Body.Close()
	if len(first) != 2 || first[1].Seq <= first[0].Seq || first[0].Seq == 0 {
		t.Fatalf("first stream seqs = %+v", first)
	}
	last := first[len(first)-1].Seq

	// Reconnect past the drop; cancel the job so the stream terminates.
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+sub.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", fmt.Sprint(last))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	del, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+sub.ID, nil)
	if r, err := http.DefaultClient.Do(del); err == nil {
		r.Body.Close()
	}
	resumed := readEvents(t, resp2.Body, 1000)
	if len(resumed) == 0 {
		t.Fatal("resumed stream carried no snapshots")
	}
	prev := last
	for _, st := range resumed {
		if st.Seq <= prev {
			t.Fatalf("non-monotonic seq across reconnect: %d after %d", st.Seq, prev)
		}
		prev = st.Seq
	}
	if final := resumed[len(resumed)-1]; !terminal(final.State) {
		t.Fatalf("resumed stream ended in state %q", final.State)
	}
}

func ExampleServer() {
	srv := New(Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"graph_text": "graph app\nnode 0 2\nnode 1 3\nedge 0 1 1\n", "system": "ring:2"}`
	resp, _ := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	var sub SubmitResponse
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	for {
		r, _ := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
		var st JobStatus
		json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if st.State == StateDone {
			fmt.Println("length:", st.Length, "optimal:", st.Optimal)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Output: length: 5 optimal: true
}

// largeLayeredSTG renders the canonical large-instance workload
// (gen.LayeredSTG's shape) in Standard Task Graph text form, as a client
// would submit it.
func largeLayeredSTG(t *testing.T, layers, width int) string {
	t.Helper()
	g, err := gen.Layered(gen.LayeredConfig{Layers: layers, Width: width, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := stg.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestLargeInstanceJob is the new-size-regime acceptance at the job API: a
// v = 128 layered STG instance submitted over the wire solves to proven
// optimality (BoundFactor exactly 1) with the strengthened heuristic, and
// the returned schedule validates client-side.
func TestLargeInstanceJob(t *testing.T) {
	_, base := newTestServer(t, Config{})
	stgText := largeLayeredSTG(t, 32, 4) // v = 128, beyond the old 64-task mask
	sub := postJob(t, base, SubmitRequest{
		GraphSTG: stgText,
		System:   json.RawMessage(`"complete:8"`),
		Engine:   "astar",
		Config:   JobConfig{HPlus: true},
	})
	st := waitTerminal(t, base, sub.ID)
	if st.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", st.State, st.Error)
	}
	if !st.Optimal {
		t.Fatal("v=128 job did not prove optimality")
	}
	resp, err := http.Get(base + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.BoundFactor != 1 {
		t.Fatalf("result optimal=%v bound=%g, want true/1", res.Optimal, res.BoundFactor)
	}
	if got := len(res.Schedule.Placements); got != 128 {
		t.Fatalf("schedule has %d placements, want 128", got)
	}
	g, err := stg.Read(strings.NewReader(stgText), stg.ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := res.Schedule.ToSchedule(g, procgraph.Complete(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(); err != nil {
		t.Fatalf("returned schedule invalid: %v", err)
	}
}

// TestOversizeGraphRejected pins the documented error shape for graphs
// beyond the engine cap: a 400 at submit time naming the limit, not a job
// that fails later.
func TestOversizeGraphRejected(t *testing.T) {
	_, base := newTestServer(t, Config{})
	resp := postJobRaw(t, base, SubmitRequest{
		GraphSTG: largeLayeredSTG(t, core.MaxNodes/4+1, 4), // > MaxNodes tasks
		System:   json.RawMessage(`"complete:4"`),
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize submit: got %d, want 400", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Message, fmt.Sprint(core.MaxNodes)) {
		t.Fatalf("error %q does not name the %d-node cap", e.Message, core.MaxNodes)
	}
}

// TestOversizeSystemRejected: a processor system beyond procgraph.MaxProcs
// is a 400 bad_request naming the limit, whether it comes as a spec whose
// size once wrapped (hypercube:64 used to panic the handler) or as a JSON
// system with a huge PE count, and it is rejected before anything of that
// size is built.
func TestOversizeSystemRejected(t *testing.T) {
	_, base := newTestServer(t, Config{})
	for _, sys := range []string{`"hypercube:63"`, `"hypercube:64"`, `"complete:1025"`, `"mesh:4096x4096"`, `{"procs": 1000000000, "links": []}`} {
		resp := postJobRaw(t, base, SubmitRequest{
			GraphText: "graph pair\nnode 0 1\nnode 1 1\nedge 0 1 1\n",
			System:    json.RawMessage(sys),
		})
		var e ErrorResponse
		err := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("system %s: %v", sys, err)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Code != ErrCodeBadRequest || !strings.Contains(e.Message, fmt.Sprint(procgraph.MaxProcs)) {
			t.Fatalf("system %s: got %d %+v, want 400 bad_request naming the %d-PE limit", sys, resp.StatusCode, e, procgraph.MaxProcs)
		}
	}
}

// TestCostOverflowRejected: a 3-task chain of weight 1e9 has a 3e9 schedule
// length, beyond the engines' int32 arithmetic (it used to be accepted and
// served with a negative finish time). It is a 400 bad_request at submit
// time naming the cost limit, and no job is created.
func TestCostOverflowRejected(t *testing.T) {
	_, base := newTestServer(t, Config{})
	resp := postJobRaw(t, base, SubmitRequest{
		GraphText: "graph chain\nnode 0 1000000000\nnode 1 1000000000\nnode 2 1000000000\nedge 0 1 0\nedge 1 2 0\n",
		System:    json.RawMessage(`"complete:1"`),
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing submit: got %d, want 400", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != ErrCodeBadRequest || !strings.Contains(e.Message, fmt.Sprint(core.MaxCost)) {
		t.Fatalf("error %+v, want bad_request naming the %d cost limit", e, core.MaxCost)
	}
	listResp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var list JobList
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 0 {
		t.Fatalf("job list after a rejected submit: %+v", list.Jobs)
	}
}

// getTrace fetches and decodes GET /v1/jobs/{id}/trace.
func getTrace(t *testing.T, base, id string) TraceResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace %s: got %d", id, resp.StatusCode)
	}
	var tr TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTraceCacheHitVsMiss is the ISSUE 8 acceptance check on the local
// path: a cold job's trace carries a cache miss and a real solve span,
// while the identical resubmission's trace shows the cache hit and — the
// observable proof no search ran — no solve span and no telemetry.
func TestTraceCacheHitVsMiss(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1})
	req := SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`), Engine: "astar"}

	cold := postJob(t, base, req).ID
	if st := waitTerminal(t, base, cold); st.State != StateDone {
		t.Fatalf("cold job ended %s (%s)", st.State, st.Error)
	}
	ct := getTrace(t, base, cold)
	if ct.TraceID == "" {
		t.Fatal("cold trace has no trace ID")
	}
	coldSpans := map[string]obs.Span{}
	for _, sp := range ct.Spans {
		coldSpans[sp.Name] = sp
	}
	for _, name := range []string{"admit", "cache", "queue", "solve", "persist"} {
		if _, ok := coldSpans[name]; !ok {
			t.Errorf("cold trace missing %q span: %+v", name, ct.Spans)
		}
	}
	if got := attrOf(coldSpans["cache"], "outcome"); got != "miss" {
		t.Errorf("cold cache span outcome %q, want miss", got)
	}

	warm := postJob(t, base, req).ID
	if st := waitTerminal(t, base, warm); st.State != StateDone {
		t.Fatalf("warm job ended %s (%s)", st.State, st.Error)
	}
	wt := getTrace(t, base, warm)
	if wt.TraceID == "" || wt.TraceID == ct.TraceID {
		t.Fatalf("warm trace ID %q (cold %q): want a fresh non-empty ID", wt.TraceID, ct.TraceID)
	}
	var sawCache bool
	for _, sp := range wt.Spans {
		switch sp.Name {
		case "cache":
			sawCache = true
			if got := attrOf(sp, "outcome"); got != "hit" {
				t.Errorf("warm cache span outcome %q, want hit", got)
			}
		case "solve", "dispatch":
			t.Errorf("warm trace carries a %q span — the cache hit should have skipped the solve path", sp.Name)
		}
	}
	if !sawCache {
		t.Fatalf("warm trace has no cache span: %+v", wt.Spans)
	}
	if wt.Telemetry != nil {
		t.Errorf("warm trace carries telemetry (%d samples) — no search ran", wt.Telemetry.Total)
	}
}

func attrOf(sp obs.Span, key string) string { return sp.Attrs[key] }

package server

// Conformance tests for the content-addressed schedule cache as seen over
// the wire: a repeated submission must return a byte-identical result
// with zero engine expansions, bypass must force a real solve, and any
// change to the question (budget, engine) must miss. The /metrics text
// endpoint is exercised alongside, since the cache counters surface there.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/procgraph"
)

// normalizeResult strips the one field that legitimately differs between
// a solved and a cached result — the job ID — and re-encodes, so equality
// below is byte-level over everything that matters (schedule, makespan,
// Optimal, BoundFactor, Stats).
func normalizeResult(t *testing.T, raw []byte) []byte {
	t.Helper()
	var res JobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result does not parse: %v\n%s", err, raw)
	}
	res.ID = ""
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// normalizeSolve additionally clears the wall clock — two independent
// solves of the same instance agree on everything but how long they took.
func normalizeSolve(t *testing.T, raw []byte) []byte {
	t.Helper()
	var res JobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result does not parse: %v\n%s", err, raw)
	}
	res.ID = ""
	res.Stats.WallTime = 0
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestScheduleCacheConformance(t *testing.T) {
	_, base := newTestServer(t, Config{})
	req := SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`), Engine: "astar"}

	// Cold: a real solve.
	a := postJob(t, base, req)
	sa := waitTerminal(t, base, a.ID)
	if sa.State != StateDone || sa.Cache != "" {
		t.Fatalf("first solve: state=%s cache=%q, want done with no cache note", sa.State, sa.Cache)
	}
	if sa.Progress.Expanded == 0 {
		t.Fatal("first solve expanded 0 states; the conformance test needs a real search")
	}
	ra := getResultBytes(t, base, a.ID)

	// Warm: answered from the memo, with the zero-expansion proof.
	b := postJob(t, base, req)
	sb := waitTerminal(t, base, b.ID)
	if sb.State != StateDone || sb.Cache != "hit" {
		t.Fatalf("repeat: state=%s cache=%q, want done/hit", sb.State, sb.Cache)
	}
	if sb.Progress.Expanded != 0 || sb.Progress.Generated != 0 {
		t.Fatalf("cached job reports expansions (%d/%d); no search may run on a hit",
			sb.Progress.Expanded, sb.Progress.Generated)
	}
	rb := getResultBytes(t, base, b.ID)
	if na, nb := normalizeResult(t, ra), normalizeResult(t, rb); !bytes.Equal(na, nb) {
		t.Fatalf("cached result differs from the solved one:\ncold: %s\nwarm: %s", na, nb)
	}
	var rbRes JobResult
	if err := json.Unmarshal(rb, &rbRes); err != nil || rbRes.ID != b.ID {
		t.Fatalf("cached result carries ID %q, want the new job's %q", rbRes.ID, b.ID)
	}

	h := getHealth(t, base)
	if h.Cache == nil || h.Cache.Hits != 1 || h.Cache.Misses < 1 || h.Cache.Entries == 0 {
		t.Fatalf("healthz cache stats after one hit = %+v", h.Cache)
	}

	// Bypass: the escape hatch really re-solves.
	byp := req
	byp.Cache = CacheBypass
	c := postJob(t, base, byp)
	sc := waitTerminal(t, base, c.ID)
	if sc.State != StateDone || sc.Cache != CacheBypass {
		t.Fatalf("bypass: state=%s cache=%q", sc.State, sc.Cache)
	}
	if sc.Progress.Expanded == 0 {
		t.Fatal("bypass submission was served without a search")
	}
	rc := getResultBytes(t, base, c.ID)
	if na, nc := normalizeSolve(t, ra), normalizeSolve(t, rc); !bytes.Equal(na, nc) {
		t.Fatalf("bypass result differs from the first solve:\n%s\n%s", na, nc)
	}
	if h := getHealth(t, base); h.Cache.Bypasses != 1 {
		t.Fatalf("healthz cache bypasses = %d, want 1", h.Cache.Bypasses)
	}

	// A different budget is a different question: no hit.
	other := req
	other.Config = JobConfig{MaxExpanded: 1 << 30}
	d := postJob(t, base, other)
	sd := waitTerminal(t, base, d.ID)
	if sd.Cache != "" || sd.Progress.Expanded == 0 {
		t.Fatalf("changed budget: cache=%q expanded=%d, want a fresh solve", sd.Cache, sd.Progress.Expanded)
	}
	// A different engine likewise (dfbb reports no live progress, so the
	// fresh-solve proof is the result's own expansion count).
	eng := req
	eng.Engine = "dfbb"
	e := postJob(t, base, eng)
	if se := waitTerminal(t, base, e.ID); se.Cache != "" {
		t.Fatalf("changed engine: cache=%q, want a fresh solve", se.Cache)
	}
	var eres JobResult
	if err := json.Unmarshal(getResultBytes(t, base, e.ID), &eres); err != nil {
		t.Fatal(err)
	}
	if eres.Engine != "dfbb" || eres.Stats.Expanded == 0 {
		t.Fatalf("changed engine: result engine=%s expanded=%d, want a real dfbb solve", eres.Engine, eres.Stats.Expanded)
	}
}

// TestCacheDisabled: a negative byte budget turns the cache off — repeats
// solve again and healthz carries no cache block.
func TestCacheDisabled(t *testing.T) {
	_, base := newTestServer(t, Config{CacheBytes: -1})
	req := SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`)}
	a := postJob(t, base, req)
	waitTerminal(t, base, a.ID)
	b := postJob(t, base, req)
	sb := waitTerminal(t, base, b.ID)
	if sb.Cache != "" || sb.Progress.Expanded == 0 {
		t.Fatalf("disabled cache: cache=%q expanded=%d, want a fresh solve", sb.Cache, sb.Progress.Expanded)
	}
	if h := getHealth(t, base); h.Cache != nil {
		t.Fatalf("healthz carries cache stats %+v with the cache disabled", h.Cache)
	}
}

// TestBadCacheMode: any cache value but "bypass" is a 400.
func TestBadCacheMode(t *testing.T) {
	_, base := newTestServer(t, Config{})
	resp := postJobRaw(t, base, SubmitRequest{
		GraphText: paperText(t), System: json.RawMessage(`"ring:3"`), Cache: "maybe",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cache=maybe: got %d, want 400", resp.StatusCode)
	}
}

// TestMetricsEndpoint scrapes /metrics after one solved job and one cache
// hit and checks the exposition format and the families the dashboards
// would alert on.
func TestMetricsEndpoint(t *testing.T) {
	_, base := newTestServer(t, Config{})
	req := SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`), Engine: "astar"}
	a := postJob(t, base, req)
	waitTerminal(t, base, a.ID)
	b := postJob(t, base, req)
	waitTerminal(t, base, b.ID)

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content-type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	for _, want := range []string{
		"icpp98_jobs_submitted_total 2",
		`icpp98_jobs_finished_total{state="done"} 2`,
		`icpp98_jobs{state="done"} 2`,
		"icpp98_cache_hits_total 1",
		"icpp98_queue_depth 0",
		`icpp98_engine_expanded_total{engine="astar"} `,
		"icpp98_uptime_seconds ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics misses %q\n%s", want, body)
		}
	}
	// The astar family must carry the solve's real expansions (the cached
	// job adds zero — hits must not inflate throughput counters).
	sa := getStatus(t, base, a.ID)
	line := ""
	for _, l := range strings.Split(body, "\n") {
		if strings.HasPrefix(l, `icpp98_engine_expanded_total{engine="astar"}`) {
			line = l
		}
	}
	if want := fmt.Sprintf("%d", sa.Progress.Expanded); !strings.HasSuffix(line, " "+want) {
		t.Errorf("engine expanded line %q, want total %s (the first solve's count)", line, want)
	}
}

// TestFinishPublishesCacheAndPersistFirst: a waiter that wakes on a job's
// terminal state must already find the job's schedule-cache entry and the
// persist span in its trace, so a client that sees done and resubmits hits
// the cache. A cancelled or failed job is never cached.
func TestFinishPublishesCacheAndPersistFirst(t *testing.T) {
	srv, base := newTestServer(t, Config{Workers: 2})
	for _, eng := range []string{"astar", "dfbb", "ida", "bnb"} {
		id := postJob(t, base, SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`), Engine: eng}).ID
		j := srv.store.get(id)
		select {
		case <-j.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: job never finished", eng)
		}
		if _, ok := srv.cache.Get(j.cacheKey, j.inst.graph, j.inst.system); !ok {
			t.Errorf("%s: job is terminal but its result is not in the schedule cache", eng)
		}
		spans, _ := j.trace.Snapshot()
		if len(spans) == 0 || spans[len(spans)-1].Name != "persist" {
			t.Errorf("%s: job is terminal but its trace does not end in persist: %+v", eng, spans)
		}
	}

	// Cancelled and failed outcomes, driven through finishJob directly so
	// the outcome is certain: neither may leave a cache entry behind.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name   string
		ctx    context.Context
		errMsg string
		want   string
	}{
		{"cancelled", cancelled, "", StateCancelled},
		{"failed", context.Background(), "engine exploded", StateFailed},
	} {
		inst := newInstance(gen.PaperExample(), procgraph.Ring(3))
		j := &job{
			inst: inst, engines: []string{"astar"},
			cancel: func() {}, progress: &core.Progress{},
			trace:    obs.NewRecorder(obs.NewTraceID()),
			cacheKey: cacheKey(inst, []string{"astar", tc.name}, JobConfig{}),
			cacheOK:  true,
		}
		if _, err := srv.store.add(j); err != nil {
			t.Fatal(err)
		}
		srv.finishJob(tc.ctx, j, &JobResult{Engine: "astar", Length: 14}, tc.errMsg)
		if st := srv.store.status(j); st.State != tc.want {
			t.Fatalf("%s: job ended %s, want %s", tc.name, st.State, tc.want)
		}
		if _, ok := srv.cache.Get(j.cacheKey, inst.graph, inst.system); ok {
			t.Errorf("%s job was cached", tc.name)
		}
	}
}

// TestCacheKeyCoversConfig holds cacheKey to the configuration it
// digests: equal submissions share a key, and changing any one JobConfig
// field, the engine list, or the list's order changes it. The fields are
// walked by reflection, so a field added to JobConfig but not to cacheKey
// fails here.
func TestCacheKeyCoversConfig(t *testing.T) {
	inst := newInstance(gen.PaperExample(), procgraph.Ring(3))
	engines := []string{"astar", "dfbb"}
	cfg := JobConfig{Epsilon: 0.1, HFunc: "paper", Disable: []string{"iso"}}
	base := cacheKey(inst, engines, cfg)
	same := JobConfig{Epsilon: 0.1, HFunc: "paper", Disable: []string{"iso"}}
	if got := cacheKey(inst, []string{"astar", "dfbb"}, same); got != base {
		t.Fatalf("equal submissions: keys %+v and %+v", got, base)
	}

	for _, list := range [][]string{{"dfbb", "astar"}, {"astar"}, {"astar", "dfbb", "ida"}, {"astar", "dfb", "b"}} {
		if cacheKey(inst, list, cfg) == base {
			t.Errorf("engines %q share the key of %q", list, engines)
		}
	}

	typ := reflect.TypeOf(cfg)
	for i := 0; i < typ.NumField(); i++ {
		changed := cfg
		changed.Disable = append([]string(nil), cfg.Disable...)
		f := reflect.ValueOf(&changed).Elem().Field(i)
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.5)
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 7)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Slice:
			f.Set(reflect.Append(f, reflect.ValueOf("fto")))
		default:
			t.Fatalf("JobConfig.%s: kind %s not covered by this test", typ.Field(i).Name, f.Kind())
		}
		if cacheKey(inst, engines, changed) == base {
			t.Errorf("changing JobConfig.%s leaves the cache key unchanged", typ.Field(i).Name)
		}
	}
}

package server

// Tests for the admission memo and the decoded schedule cache: repeated
// instance bytes share one decoded instance, a rejected body is never
// memoized, a cache entry only answers the instance it was solved for,
// and concurrent hits never write the entry they share.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/solverpool"
)

func TestAdmissionMemoSharesInstance(t *testing.T) {
	m := newAdmissionMemo()
	req := SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`)}
	a, err := m.admit(&req)
	if err != nil {
		t.Fatal(err)
	}
	same := req
	b, err := m.admit(&same)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("byte-identical instance fields decoded twice")
	}
	if gd, sd := solverpool.InstanceDigest(a.graph, a.system); gd != a.graphDigest || sd != a.systemDigest {
		t.Fatalf("memo digests %x/%x, want %x/%x", a.graphDigest, a.systemDigest, gd, sd)
	}
	// Any byte of any instance field makes a different key, even when the
	// instance decodes equal.
	for _, other := range []SubmitRequest{
		{GraphText: paperText(t), System: json.RawMessage(`"ring:3" `)},
		{GraphText: paperText(t) + "\n", System: json.RawMessage(`"ring:3"`)},
		{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`), STGEdgeCost: 1},
	} {
		c, err := m.admit(&other)
		if err != nil {
			t.Fatal(err)
		}
		if c == a {
			t.Fatalf("request %+v shared the memo entry of different bytes", other)
		}
	}

	// A rejected body is decoded, and rejected, every time.
	bad := SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:0"`)}
	_, err1 := m.admit(&bad)
	_, err2 := m.admit(&bad)
	if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("bad system: errors %v / %v, want the same error twice", err1, err2)
	}
	if _, ok := m.entries[instanceKey(&bad)]; ok {
		t.Fatal("a rejected instance was memoized")
	}
}

func TestAdmissionMemoBounded(t *testing.T) {
	m := newAdmissionMemo()
	for i := range maxAdmittedInstances + 10 {
		g, err := gen.Random(gen.RandomConfig{V: 4, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.admit(&SubmitRequest{Graph: raw, System: json.RawMessage(`"ring:3"`)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.entries) > maxAdmittedInstances || m.bytes > maxAdmittedBytes {
		t.Fatalf("memo holds %d entries, %d bytes; bounds are %d and %d",
			len(m.entries), m.bytes, maxAdmittedInstances, maxAdmittedBytes)
	}
	var sum int64
	for _, e := range m.entries {
		sum += e.charge
	}
	if sum != m.bytes {
		t.Fatalf("byte account %d, entries charge %d", m.bytes, sum)
	}
}

// TestCacheHitConfirmsInstance forges a digest collision: a second,
// different instance is admitted carrying the first instance's digests,
// so its cache key names the first instance's entry. The job must solve
// its own instance — never receive the other's schedule and optimality
// claim — and the lookup counts as a collision.
func TestCacheHitConfirmsInstance(t *testing.T) {
	srv, base := newTestServer(t, Config{})
	reqA := SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`), Engine: "astar"}
	a := postJob(t, base, reqA)
	if st := waitTerminal(t, base, a.ID); st.State != StateDone || st.Length != 14 {
		t.Fatalf("instance A: %+v", st)
	}
	instA, err := srv.admission.admit(&reqA)
	if err != nil {
		t.Fatal(err)
	}

	gB, err := gen.Random(gen.RandomConfig{V: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rawB, err := json.Marshal(gB)
	if err != nil {
		t.Fatal(err)
	}
	reqB := SubmitRequest{Graph: rawB, System: reqA.System, Engine: "astar"}
	honest, err := srv.admission.admit(&reqB)
	if err != nil {
		t.Fatal(err)
	}
	forged := &instance{graph: honest.graph, system: honest.system,
		graphDigest: instA.graphDigest, systemDigest: instA.systemDigest}
	srv.admission.mu.Lock()
	srv.admission.entries[instanceKey(&reqB)] = memoEntry{inst: forged, charge: 1}
	srv.admission.mu.Unlock()

	b := postJob(t, base, reqB)
	st := waitTerminal(t, base, b.ID)
	if st.State != StateDone || st.Cache == "hit" || st.Progress.Expanded == 0 {
		t.Fatalf("forged-key job: state=%s cache=%q expanded=%d, want a real solve", st.State, st.Cache, st.Progress.Expanded)
	}
	var res JobResult
	if err := json.Unmarshal(getResultBytes(t, base, b.ID), &res); err != nil {
		t.Fatal(err)
	}
	sched, err := res.Schedule.ToSchedule(gB, honest.system)
	if err != nil {
		t.Fatalf("forged-key job got a schedule for another instance: %v", err)
	}
	if err := sched.Validate(); err != nil {
		t.Fatalf("forged-key job's schedule does not fit its instance: %v", err)
	}
	if h := getHealth(t, base); h.Cache == nil || h.Cache.Collisions != 1 || h.Cache.Hits != 0 {
		t.Fatalf("healthz cache = %+v, want one collision and no hit", h.Cache)
	}
}

// TestConcurrentCacheHitsLeaveEntryUnchanged serves many hits of one
// cache entry while their results and Gantt charts are fetched in
// parallel (run it with -race): every hit shares the entry's schedule,
// and none may write it.
func TestConcurrentCacheHitsLeaveEntryUnchanged(t *testing.T) {
	srv, base := newTestServer(t, Config{Workers: 2})
	req := SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`), Engine: "astar"}
	first := postJob(t, base, req)
	waitTerminal(t, base, first.ID)
	j := srv.store.get(first.ID)
	key := j.cacheKey
	before, ok := srv.cache.Get(key, j.inst.graph, j.inst.system)
	if !ok {
		t.Fatal("the solved job left no cache entry")
	}
	want, err := json.Marshal(before)
	if err != nil {
		t.Fatal(err)
	}

	const hits = 8
	var wg sync.WaitGroup
	for range hits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := json.Marshal(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			var sub SubmitResponse
			err = json.NewDecoder(resp.Body).Decode(&sub)
			resp.Body.Close()
			if err != nil {
				t.Error(err)
				return
			}
			<-srv.store.get(sub.ID).done
			var fetches sync.WaitGroup
			for _, path := range []string{"/result", "/result?format=gantt", "/result", "/result?format=gantt"} {
				fetches.Add(1)
				go func() {
					defer fetches.Done()
					resp, err := http.Get(base + "/v1/jobs/" + sub.ID + path)
					if err != nil {
						t.Error(err)
						return
					}
					var buf bytes.Buffer
					buf.ReadFrom(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s: %d %s", path, resp.StatusCode, buf.String())
					}
					var got struct {
						ID string `json:"id"`
					}
					if !strings.Contains(path, "gantt") && (json.Unmarshal(buf.Bytes(), &got) != nil || got.ID != sub.ID) {
						t.Errorf("GET %s carries another job's ID:\n%s", path, buf.String())
					}
				}()
			}
			fetches.Wait()
			if st := srv.store.status(srv.store.get(sub.ID)); st.Cache != "hit" {
				t.Errorf("repeat %s: cache=%q, want hit", sub.ID, st.Cache)
			}
		}()
	}
	wg.Wait()

	after, ok := srv.cache.Get(key, j.inst.graph, j.inst.system)
	if !ok {
		t.Fatal("the cache entry vanished")
	}
	got, err := json.Marshal(after)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || !reflect.DeepEqual(after, before) {
		t.Fatalf("serving hits changed the cached value:\nbefore: %s\nafter:  %s", want, got)
	}
	if after.ID != "" || after.State != StateDone {
		t.Fatalf("cached value carries ID %q state %q, want no ID and done", after.ID, after.State)
	}
}

// instantDispatcher answers every job at once with a fixed schedule, so
// the admission fuzz target exercises the whole submit handler without a
// search.
type instantDispatcher struct{ fakeDispatcher }

func (d *instantDispatcher) Dispatch(ctx context.Context, job DispatchJob) (*JobResult, string) {
	job.Started()
	return &JobResult{ID: job.ID, Engine: "astar", Length: 1}, ""
}

// encodingDispatcher encodes every job's instance twice, as two leases
// of it would, and keeps what Encode returned.
type encodingDispatcher struct {
	instantDispatcher
	mu      sync.Mutex
	encoded [][2]json.RawMessage
}

func (d *encodingDispatcher) Dispatch(ctx context.Context, job DispatchJob) (*JobResult, string) {
	for range 2 {
		g, sys, err := job.Encode()
		if err != nil {
			return nil, err.Error()
		}
		d.mu.Lock()
		d.encoded = append(d.encoded, [2]json.RawMessage{g, sys})
		d.mu.Unlock()
	}
	return d.instantDispatcher.Dispatch(ctx, job)
}

// TestDispatchEncodesInstanceOnce: on the in-memory store, which encodes
// nothing at admission, every lease of every job of one instance ships
// the same bytes, marshalled once, and they are the instance's canonical
// encoding.
func TestDispatchEncodesInstanceOnce(t *testing.T) {
	srv, base := newTestServer(t, Config{})
	d := &encodingDispatcher{}
	srv.EnableCluster(d)
	req := SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`), Cache: CacheBypass}
	for range 2 {
		if st := waitTerminal(t, base, postJob(t, base, req).ID); st.State != StateDone {
			t.Fatalf("job: %+v", st)
		}
	}
	inst, err := srv.admission.admit(&req)
	if err != nil {
		t.Fatal(err)
	}
	wantG, err := json.Marshal(inst.graph)
	if err != nil {
		t.Fatal(err)
	}
	wantS, err := json.Marshal(inst.system)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.encoded) != 4 {
		t.Fatalf("%d encodings, want two per job", len(d.encoded))
	}
	first := d.encoded[0]
	for _, enc := range d.encoded {
		if &enc[0][0] != &first[0][0] || &enc[1][0] != &first[1][0] {
			t.Fatal("an instance was marshalled again for a later lease")
		}
	}
	if !bytes.Equal(first[0], wantG) || !bytes.Equal(first[1], wantS) {
		t.Fatalf("leased bytes differ from the canonical encoding:\n%s\n%s", first[0], first[1])
	}
}

// submitBody runs one POST /v1/jobs through the handler.
func submitBody(srv *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	return rec
}

// FuzzSubmitAdmission: every body is either a 400 or admitted (202); an
// admitted instance's memo entry agrees with a fresh decodeInstance on
// the digests and a rejected one with it on the error; and the same body
// submitted twice gets the same answer.
func FuzzSubmitAdmission(f *testing.F) {
	var text bytes.Buffer
	if err := json.NewEncoder(&text).Encode(SubmitRequest{GraphText: "3\n1 2 3\n0 1 4\n1 2 5\n", System: json.RawMessage(`"ring:2"`)}); err != nil {
		f.Fatal(err)
	}
	rawGraph, err := json.Marshal(gen.PaperExample())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		text.Bytes(),
		[]byte(`{"graph":` + string(rawGraph) + `,"system":"ring:3"}`),
		[]byte(`{"graph":` + string(rawGraph) + `,"system":{"name":"p2","procs":2,"links":[[0,1]]}}`),
		[]byte(`{"graph_stg":"2\n0 0 0\n1 3 1 0\n2 4 1 1\n3 0 1 2\n","stg_edge_cost":2,"system":"complete:2"}`),
		[]byte(`{"graph_text":"2\n1 1\n0 1 1\n","system":"ring:0"}`),
		[]byte(`{"graph_text":"2\n1 1\n0 1 1\n","graph_stg":"x"}`),
		[]byte(`{"graph_text":"2\n1 1\n0 1 1\n","engine":"nope"}`),
		[]byte(`{"graph_text":"2\n1 1\n0 1 1\n","cache":"maybe"}`),
		[]byte(`{"unknown":1}`),
		[]byte(`not json`),
	} {
		f.Add(seed)
	}
	srv := New(Config{Workers: 1, TTL: time.Minute})
	srv.EnableCluster(&instantDispatcher{})
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		first := submitBody(srv, body)
		if first.Code != http.StatusAccepted && first.Code != http.StatusBadRequest {
			t.Fatalf("status %d, want 202 or 400: %s", first.Code, first.Body)
		}
		second := submitBody(srv, body)
		if second.Code != first.Code {
			t.Fatalf("the same body got %d then %d", first.Code, second.Code)
		}
		if first.Code == http.StatusBadRequest && first.Body.String() != second.Body.String() {
			t.Fatalf("the same body was rejected two ways:\n%s\n%s", first.Body, second.Body)
		}

		var req SubmitRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			if first.Code != http.StatusBadRequest {
				t.Fatal("an undecodable body was admitted")
			}
			return
		}
		g, sys, freshErr := decodeInstance(&req)
		memo, memoErr := srv.admission.admit(&req)
		switch {
		case (freshErr == nil) != (memoErr == nil):
			t.Fatalf("memo and fresh decode disagree: memo %v, fresh %v", memoErr, freshErr)
		case freshErr != nil:
			if memoErr.Error() != freshErr.Error() {
				t.Fatalf("memo error %q, fresh error %q", memoErr, freshErr)
			}
			if first.Code != http.StatusBadRequest {
				t.Fatalf("an invalid instance was admitted: %v", freshErr)
			}
		default:
			if gd, sd := solverpool.InstanceDigest(g, sys); gd != memo.graphDigest || sd != memo.systemDigest {
				t.Fatalf("memo digests %x/%x, fresh %x/%x", memo.graphDigest, memo.systemDigest, gd, sd)
			}
		}
	})
}

// BenchmarkSubmitCacheHit measures one repeated submission end to end
// through the handler — body decode, admission from the memo, cache hit,
// terminal state — with allocations per operation.
func BenchmarkSubmitCacheHit(b *testing.B) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	rawGraph, err := json.Marshal(gen.PaperExample())
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(SubmitRequest{Graph: rawGraph, System: json.RawMessage(`"ring:3"`), Engine: "astar"})
	if err != nil {
		b.Fatal(err)
	}
	submit := func() JobStatus {
		rec := submitBody(srv, body)
		var sub SubmitResponse
		if err := json.NewDecoder(rec.Body).Decode(&sub); err != nil || rec.Code != http.StatusAccepted {
			b.Fatalf("submit: %d %v", rec.Code, err)
		}
		j := srv.store.get(sub.ID)
		<-j.done
		return srv.store.status(j)
	}
	if st := submit(); st.State != StateDone {
		b.Fatalf("priming solve ended %s", st.State)
	}
	b.ReportAllocs()
	for b.Loop() {
		if st := submit(); st.Cache != "hit" {
			b.Fatalf("repeat was not a cache hit: %+v", st)
		}
	}
}

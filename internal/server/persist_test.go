package server

// The durability test wall: a file-backed daemon is killed (never Closed —
// the crash case, not graceful shutdown) and a fresh Server on the same
// store directory must recover every retained job; the WAL/snapshot
// decoder is unit-tested on torn tails and stale records and fuzzed in
// FuzzStoreDecode; and terminal retention must never wedge admission.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/procgraph"
)

// getHealth fetches /v1/healthz.
func getHealth(t *testing.T, base string) Health {
	t.Helper()
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// getResultBytes fetches a finished job's result verbatim — the byte-level
// view the identity assertions compare.
func getResultBytes(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: got %d: %s", id, resp.StatusCode, data)
	}
	return data
}

// TestRestartRecovery is the kill-and-restart e2e: a daemon with a file
// store serves one job to completion and has a second mid-solve when the
// process "dies" (the Server is abandoned, never Closed — Close would
// gracefully cancel the job and record it, which a crash does not). A
// fresh Server on the same directory must recover the finished job with a
// byte-identical result, report the interrupted one as failed, preserve
// list order, and keep admitting new work.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	srv1, err := Open(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Closed last (after srv2), releasing the goroutine parked in the
	// blocking engine; by then every assertion has run.
	t.Cleanup(srv1.Close)
	ts1 := httptest.NewServer(srv1)
	defer ts1.Close()

	req := SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`)}
	a := postJob(t, ts1.URL, req)
	if st := waitTerminal(t, ts1.URL, a.ID); st.State != StateDone {
		t.Fatalf("first job ended %s: %s", st.State, st.Error)
	}
	want := getResultBytes(t, ts1.URL, a.ID)

	blocked := req
	blocked.Engine = "test-block"
	b := postJob(t, ts1.URL, blocked)
	waitState(t, ts1.URL, b.ID, StateRunning)
	<-testBlocker.running
	// Crash: stop serving, abandon srv1 with the solve still parked.
	ts1.Close()

	srv2, err := Open(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(func() { ts2.Close(); srv2.Close() })

	// The finished job survived with a byte-identical result.
	if got := getResultBytes(t, ts2.URL, a.ID); !bytes.Equal(got, want) {
		t.Fatalf("recovered result differs:\nbefore: %s\nafter:  %s", want, got)
	}
	// The interrupted job reads failed with an honest error.
	st := getStatus(t, ts2.URL, b.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "interrupted") {
		t.Fatalf("mid-flight job recovered as %s (%q), want failed/interrupted", st.State, st.Error)
	}
	// List order (oldest first) survived the restart.
	resp, err := http.Get(ts2.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list JobList
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 || list.Jobs[0].ID != a.ID || list.Jobs[1].ID != b.ID {
		t.Fatalf("recovered list = %+v, want [%s %s]", list.Jobs, a.ID, b.ID)
	}
	// Recovered jobs are all terminal: zero live jobs, two retained.
	if h := getHealth(t, ts2.URL); h.Jobs != 0 || h.RetainedJobs != 2 {
		t.Fatalf("health after recovery: jobs=%d retained=%d, want 0/2", h.Jobs, h.RetainedJobs)
	}
	// The ID sequence resumed past the recovered jobs, and new work runs.
	c := postJob(t, ts2.URL, req)
	if c.ID != "job-3" {
		t.Fatalf("post-recovery ID = %s, want job-3 (sequence must resume)", c.ID)
	}
	if st := waitTerminal(t, ts2.URL, c.ID); st.State != StateDone {
		t.Fatalf("post-recovery job ended %s: %s", st.State, st.Error)
	}
}

// TestRestartRecoverySurvivesSecondRestart re-opens the store a third
// time: the close-time compaction must leave a snapshot that recovers
// identically (recovery is idempotent, not a one-shot).
func TestRestartRecoverySurvivesSecondRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, err := Open(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	req := SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`)}
	a := postJob(t, ts1.URL, req)
	waitTerminal(t, ts1.URL, a.ID)
	want := getResultBytes(t, ts1.URL, a.ID)
	ts1.Close()
	srv1.Close()

	for round := 0; round < 2; round++ {
		srv, err := Open(Config{StoreDir: dir})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		ts := httptest.NewServer(srv)
		if got := getResultBytes(t, ts.URL, a.ID); !bytes.Equal(got, want) {
			t.Fatalf("round %d: result drifted:\n%s\n%s", round, want, got)
		}
		ts.Close()
		srv.Close()
	}
	// After a graceful close the WAL is empty and the snapshot is whole.
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) != 0 {
		t.Fatalf("WAL holds %d bytes after graceful close, want 0", len(wal))
	}
}

// TestLoadRecordsMergeAndTornTail drives the replay merge directly: a
// stale WAL record must not regress a snapshot state, deletes tombstone
// (jobs and their leases alike), lease records merge latest-wins and are
// filtered against the merged job states, and a torn final line ends
// replay without error.
func TestLoadRecordsMergeAndTornTail(t *testing.T) {
	dir := t.TempDir()
	snap := storeSnapshot{Schema: storeSchema, Seq: 3, Jobs: []jobRecord{
		{ID: "job-1", State: StateDone, Created: time.Unix(10, 0)},
	}}
	data, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotName), data, 0o666); err != nil {
		t.Fatal(err)
	}
	wal := strings.Join([]string{
		`{"op":"put","seq":1,"id":"job-1","state":"running","created":"1970-01-01T00:00:10Z"}`, // stale: snapshot already saw done
		`{"op":"put","seq":4,"id":"job-2","state":"queued","created":"1970-01-01T00:00:11Z"}`,
		`{"op":"lease","seq":4,"id":"job-2","lease":{"job_id":"job-2","worker_id":"w1","token":"t2","attempt":1,"granted":"1970-01-01T00:00:11Z","deadline":"1970-01-01T00:00:26Z"}}`,
		`{"op":"delete","seq":5,"id":"job-2"}`, // tombstones the job AND its lease
		`{"op":"put","seq":6,"id":"job-3","state":"done","created":"1970-01-01T00:00:12Z"}`,
		`{"op":"lease","seq":6,"id":"job-3","lease":{"job_id":"job-3","worker_id":"w1","token":"t3","attempt":1,"granted":"1970-01-01T00:00:12Z","deadline":"1970-01-01T00:00:27Z"}}`, // job is terminal: filtered
		`{"op":"put","seq":7,"id":"job-5","state":"running","created":"1970-01-01T00:00:13Z"}`,
		`{"op":"lease","seq":7,"id":"job-5","lease":{"job_id":"job-5","worker_id":"w1","token":"t5-old","attempt":1,"granted":"1970-01-01T00:00:13Z","deadline":"1970-01-01T00:00:28Z"}}`,
		`{"op":"lease","seq":7,"id":"job-5","lease":{"job_id":"job-5","worker_id":"w2","token":"t5","attempt":2,"granted":"1970-01-01T00:00:14Z","deadline":"1970-01-01T00:00:29Z"}}`, // latest grant wins
		`{"op":"put","seq":8,"id":"job-6","state":"running","created":"1970-01-01T00:00:15Z"}`,
		`{"op":"lease","seq":8,"id":"job-6","lease":{"job_id":"job-6","worker_id":"w1","token":"t6","attempt":1,"granted":"1970-01-01T00:00:15Z","deadline":"1970-01-01T00:00:30Z"}}`,
		`{"op":"unlease","seq":8,"id":"job-6"}`,        // lease resolved before the crash
		`{"op":"put","seq":9,"id":"job-4","state":"do`, // torn tail: replay stops here
	}, "\n")
	if err := os.WriteFile(filepath.Join(dir, walName), []byte(wal), 0o666); err != nil {
		t.Fatal(err)
	}

	recs, leases, seq, err := loadRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 8 {
		t.Fatalf("seq = %d, want 8 (the last intact record)", seq)
	}
	if len(recs) != 4 {
		t.Fatalf("recovered %d records (%v), want 4", len(recs), recs)
	}
	if recs["job-1"].State != StateDone {
		t.Fatalf("job-1 regressed to %q; the stale WAL record must lose to the snapshot", recs["job-1"].State)
	}
	if _, ok := recs["job-2"]; ok {
		t.Fatal("tombstoned job-2 survived replay")
	}
	if recs["job-3"].State != StateDone {
		t.Fatalf("job-3 = %+v", recs["job-3"])
	}
	if len(leases) != 1 {
		t.Fatalf("recovered %d leases (%v), want only job-5's", len(leases), leases)
	}
	lr, ok := leases["job-5"]
	if !ok {
		t.Fatalf("job-5's live lease was not recovered: %v", leases)
	}
	if lr.Token != "t5" || lr.WorkerID != "w2" || lr.Attempt != 2 {
		t.Fatalf("job-5 lease = %+v; the latest grant must win the replay", lr)
	}
}

// TestDecodeSnapshotRejects covers the snapshot validator's error paths.
func TestDecodeSnapshotRejects(t *testing.T) {
	for _, bad := range []string{
		`{`,
		`{"schema":99,"seq":1,"jobs":[]}`,
		`{"schema":1,"seq":1,"jobs":[{"id":""}]}`,
	} {
		if _, err := decodeSnapshot([]byte(bad)); err == nil {
			t.Errorf("decodeSnapshot(%s) accepted", bad)
		}
	}
}

// TestTerminalRetentionDoesNotWedgeAdmission is the regression for the
// healthz/admission fix: with BacklogPerSlot set, a store full of
// terminal-but-retained jobs must neither report live load nor push the
// backlog check over its threshold — only queued/running jobs count.
func TestTerminalRetentionDoesNotWedgeAdmission(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, BacklogPerSlot: 1})
	req := SubmitRequest{GraphText: paperText(t), System: json.RawMessage(`"ring:3"`)}
	// Retain three terminal jobs — over the 1 job × 1 slot backlog bound.
	// The repeats hit the schedule cache, which is fine: hits still pass
	// through queued → running → done and land terminal in the store.
	for i := 0; i < 3; i++ {
		sub := postJob(t, base, req)
		waitTerminal(t, base, sub.ID)
	}
	h := getHealth(t, base)
	if h.Jobs != 0 {
		t.Fatalf("healthz jobs = %d with only terminal jobs retained, want 0", h.Jobs)
	}
	if h.RetainedJobs != 3 {
		t.Fatalf("healthz retained_jobs = %d, want 3", h.RetainedJobs)
	}
	// The fourth submission must still be admitted.
	sub := postJob(t, base, req)
	waitTerminal(t, base, sub.ID)
}

// TestRecoveryEvictsInFinishOrder reopens a store directory whose jobs
// finished in an order unrelated to their IDs, with a cap below the
// recovered population: recovery must evict the earliest-finished jobs,
// and after it the next eviction and the TTL sweep must keep following
// finish order, not ID order.
func TestRecoveryEvictsInFinishOrder(t *testing.T) {
	dir := t.TempDir()
	g, err := gen.Random(gen.RandomConfig{V: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := procgraph.ParseSpec("ring:3", 0)
	if err != nil {
		t.Fatal(err)
	}
	newJob := func() *job {
		return &job{inst: newInstance(g, sys), cancel: func() {}, progress: &core.Progress{}}
	}
	base := time.Unix(1_000_000_000, 0)
	clock := base
	now := func() time.Time { return clock }

	fs1, err := openFileStore(dir, 16, 10*time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs1.now = now
	jobs := map[string]*job{}
	for i := 0; i < 6; i++ {
		j := newJob()
		id, err := fs1.add(j)
		if err != nil {
			t.Fatal(err)
		}
		jobs[id] = j
	}
	// Finish order: job-4 first (base+1m), then 2, 6, 1, 5, 3 (base+6m).
	for _, id := range []string{"job-4", "job-2", "job-6", "job-1", "job-5", "job-3"} {
		clock = clock.Add(time.Minute)
		fs1.finish(jobs[id], nil, "", nil)
	}
	if err := fs1.close(); err != nil {
		t.Fatal(err)
	}

	retained := func(fs *fileStore) string {
		ids := make([]string, 0, len(fs.jobs))
		for id := range fs.jobs {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, k int) bool { return idSeq(ids[i]) < idSeq(ids[k]) })
		return strings.Join(ids, " ")
	}
	fs2, err := openFileStore(dir, 3, 10*time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.close()
	fs2.now = now
	if got, want := retained(fs2), "job-1 job-3 job-5"; got != want {
		t.Fatalf("reopened at cap 3 retains %q, want %q (job-4, 2 and 6 finished first)", got, want)
	}

	// At cap, the next admission evicts job-1, the earliest of the three.
	clock = base.Add(7 * time.Minute)
	id, err := fs2.add(newJob())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := retained(fs2), "job-3 job-5 "+id; got != want {
		t.Fatalf("after one admission at cap: %q, want %q", got, want)
	}
	// job-5 finished at base+5m and job-3 at base+6m: a TTL cutoff between
	// the two sweeps job-5 alone.
	clock = base.Add(15*time.Minute + 30*time.Second)
	if fs2.get("job-3") == nil {
		t.Fatal("job-3 swept before its TTL lapsed")
	}
	if got, want := retained(fs2), "job-3 "+id; got != want {
		t.Fatalf("after the TTL sweep: %q, want %q", got, want)
	}
}

// FuzzStoreDecode hammers the WAL-line decoder (and the snapshot decoder
// alongside) with arbitrary bytes: never a panic, and anything accepted
// must re-encode and decode back to the same record.
func FuzzStoreDecode(f *testing.F) {
	j := &job{
		id:      "job-1",
		inst:    &instance{}, // not encoded: the seed record carries no instance
		state:   StateDone,
		engines: []string{"astar"},
		config:  JobConfig{MaxExpanded: 100, HFunc: "plus"},
		created: time.Unix(10, 0).UTC(),
		result: &JobResult{ID: "job-1", State: StateDone, Engine: "astar", Length: 14,
			Schedule: SchedulePayload{Length: 14}},
		progress: &core.Progress{},
	}
	j.progress.Record(core.ProgressSnapshot{Expanded: 7, Generated: 9})
	seed, err := json.Marshal(recordOf(opPut, j, 5))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(`{"op":"delete","seq":9,"id":"job-2"}`))
	f.Add([]byte(`{"op":"become","id":"job-1"}`))
	f.Add([]byte(`{"id":""}`))
	f.Add([]byte(`{"id":"job-1","created":"not-a-time"}`))
	f.Add([]byte(`{"schema":1,"seq":1,"jobs":[{"id":"job-1"}]}`))
	f.Add([]byte("\x00\xff garbage"))
	leaseSeed := []byte(`{"op":"lease","seq":12,"id":"job-1","lease":{"job_id":"job-1","worker_id":"worker-3","worker_name":"alpha","token":"deadbeefdeadbeefdeadbeefdeadbeef","attempt":2,"granted":"1970-01-01T00:00:10Z","deadline":"1970-01-01T00:00:25Z","trace_id":"tr-1"}}`)
	f.Add(leaseSeed)
	f.Add(leaseSeed[:len(leaseSeed)/2])                                                         // torn lease tail
	f.Add([]byte(`{"op":"lease","seq":13,"id":"job-1"}`))                                       // payload-less lease: rejected
	f.Add([]byte(`{"op":"lease","seq":14,"id":"job-1","lease":{"job_id":"job-1","token":""}}`)) // tokenless: rejected
	f.Add([]byte(`{"op":"unlease","seq":15,"id":"job-1"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeSnapshot(data) // must not panic; errors are fine
		rec, err := decodeRecord(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		rec2, err := decodeRecord(out)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v\nencoded: %s", err, out)
		}
		if rec2.ID != rec.ID || rec2.Op != rec.Op || rec2.State != rec.State ||
			rec2.Seq != rec.Seq || !rec2.Created.Equal(rec.Created) ||
			rec2.Expanded != rec.Expanded || rec2.Error != rec.Error {
			t.Fatalf("round-trip drift:\nfirst:  %+v\nsecond: %+v", rec, rec2)
		}
		if (rec2.Lease == nil) != (rec.Lease == nil) {
			t.Fatalf("lease presence drift:\nfirst:  %+v\nsecond: %+v", rec, rec2)
		}
		if rec.Lease != nil &&
			(rec2.Lease.Token != rec.Lease.Token || rec2.Lease.WorkerID != rec.Lease.WorkerID ||
				rec2.Lease.Attempt != rec.Lease.Attempt || !rec2.Lease.Granted.Equal(rec.Lease.Granted)) {
			t.Fatalf("lease round-trip drift:\nfirst:  %+v\nsecond: %+v", rec.Lease, rec2.Lease)
		}
	})
}

package server

// This file is the durable half of the job store: fileStore layers an
// append-only write-ahead log plus periodic snapshot compaction on the
// in-memory memStore, so a daemon restart recovers every retained job
// instead of dropping them all.
//
// On-disk layout under the store directory (-store-dir):
//
//	jobs.json   snapshot: {"schema":1,"seq":N,"jobs":[jobRecord...],
//	            "leases":[LeaseRecord...]}, rewritten atomically (temp
//	            file + rename) at compaction
//	wal.jsonl   append-only JSON-lines WAL; each line is one jobRecord
//	            carrying the job's full state after a mutation ("put"),
//	            a tombstone ("delete") for sweeps/evictions, a cluster
//	            lease grant ("lease", payload in the lease field), or a
//	            lease tombstone ("unlease")
//
// Recovery replays the snapshot, then the WAL in order. Records are
// idempotent full-state puts, merged by state precedence (terminal beats
// running beats queued), so the crash window between a snapshot rename
// and the WAL truncation — where the WAL still holds records the snapshot
// already absorbed — replays harmlessly. A torn final WAL line (the
// normal crash artifact) ends replay at the last intact record.
//
// Jobs that were queued or running at the crash split two ways. A job
// with a live lease record was solving on a cluster worker whose process
// did not die with the daemon: it is recovered live (same state, open
// done channel) so the coordinator can re-adopt the lease — see
// Server.ResumeRecovered and internal/cluster. A job without one had its
// solver state die with the process; it is recovered as failed with an
// "interrupted" error so clients see an honest terminal state. Every put
// also spills the job's trace spans, so /v1/jobs/{id}/trace survives the
// restart. Terminal and lease records fsync on append; the snapshot
// fsyncs before rename.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/procgraph"
	"repro/internal/solverpool"
	"repro/internal/taskgraph"
)

const (
	snapshotName = "jobs.json"
	walName      = "wal.jsonl"
	storeSchema  = 1
	// compactEvery bounds WAL growth: after this many appended records the
	// live table is snapshotted and the WAL truncated.
	compactEvery = 1024
	// maxRecordBytes bounds one WAL line / snapshot, matching the submit
	// body bound — no legitimate record outgrows the largest instance.
	maxRecordBytes = 16 << 20
)

// WAL record ops. The empty op is a legacy snapshot row (treated as put).
const (
	opPutRec  = "put"
	opDelRec  = "delete"
	opLease   = "lease"   // payload in jobRecord.Lease
	opUnlease = "unlease" // lease tombstone; only the ID matters
)

// jobRecord is the persisted form of one job: everything a restarted
// daemon needs to serve status, list, and result for the job — including
// the instance itself, so ?format=gantt still renders after recovery.
type jobRecord struct {
	Op          string          `json:"op,omitempty"` // "" | "put" | "delete" (WAL only)
	Seq         int64           `json:"seq,omitempty"`
	ID          string          `json:"id"`
	State       string          `json:"state,omitempty"`
	Engines     []string        `json:"engines,omitempty"`
	Config      JobConfig       `json:"config"`
	Graph       json.RawMessage `json:"graph,omitempty"`
	System      json.RawMessage `json:"system,omitempty"`
	Created     time.Time       `json:"created"`
	Started     time.Time       `json:"started,omitzero"`
	Finished    time.Time       `json:"finished,omitzero"`
	Cancelled   bool            `json:"cancelled,omitempty"`
	Error       string          `json:"error,omitempty"`
	Result      *JobResult      `json:"result,omitempty"`
	Expanded    int64           `json:"expanded,omitempty"`
	Generated   int64           `json:"generated,omitempty"`
	PrunedEquiv int64           `json:"pruned_equiv,omitempty"`
	PrunedFTO   int64           `json:"pruned_fto,omitempty"`
	// TraceID/Spans/DroppedSpans spill the job's trace into the durable
	// record on every put, so /v1/jobs/{id}/trace survives a restart.
	TraceID      string     `json:"trace_id,omitempty"`
	Spans        []obs.Span `json:"spans,omitempty"`
	DroppedSpans int        `json:"dropped_spans,omitempty"`
	// Lease is the payload of an op "lease" record — the cluster lease
	// journal rides the job WAL (see lease.go).
	Lease *LeaseRecord `json:"lease,omitempty"`
}

// storeSnapshot is the jobs.json document.
type storeSnapshot struct {
	Schema int         `json:"schema"`
	Seq    int64       `json:"seq"`
	Jobs   []jobRecord `json:"jobs"`
	// Leases are the live cluster leases at compaction time (absent from
	// snapshots written before the lease journal existed).
	Leases []LeaseRecord `json:"leases,omitempty"`
}

// decodeRecord parses one WAL line strictly: valid JSON, a known op, and
// a non-empty ID — anything else is an error, never a panic (fuzzed by
// FuzzStoreDecode).
func decodeRecord(line []byte) (jobRecord, error) {
	var rec jobRecord
	dec := json.NewDecoder(bytes.NewReader(line))
	if err := dec.Decode(&rec); err != nil {
		return jobRecord{}, err
	}
	switch rec.Op {
	case "", opPutRec, opDelRec, opUnlease:
	case opLease:
		if rec.Lease == nil {
			return jobRecord{}, fmt.Errorf("server: lease WAL record without a lease payload")
		}
		if rec.Lease.Token == "" {
			return jobRecord{}, fmt.Errorf("server: lease WAL record without a token")
		}
	default:
		return jobRecord{}, fmt.Errorf("server: unknown WAL op %q", rec.Op)
	}
	if rec.ID == "" {
		return jobRecord{}, fmt.Errorf("server: WAL record without a job id")
	}
	return rec, nil
}

// stateRank orders states for the replay merge: a stale WAL record must
// never regress a job the snapshot already saw further along.
func stateRank(state string) int {
	switch state {
	case StateQueued:
		return 0
	case StateRunning:
		return 1
	default: // terminal
		return 2
	}
}

// decodeSnapshot parses and validates a jobs.json document.
func decodeSnapshot(data []byte) (*storeSnapshot, error) {
	var snap storeSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("server: corrupt store snapshot: %w", err)
	}
	if snap.Schema != storeSchema {
		return nil, fmt.Errorf("server: store snapshot schema %d, want %d", snap.Schema, storeSchema)
	}
	for _, rec := range snap.Jobs {
		if rec.ID == "" {
			return nil, fmt.Errorf("server: store snapshot holds a record without a job id")
		}
	}
	return &snap, nil
}

// loadRecords reads the snapshot and replays the WAL, returning the
// merged live job records, the live lease records, and the largest ID
// sequence number seen anywhere. Lease records merge by the same replay
// order as job records — the latest grant for a job wins, an unlease
// tombstone clears it — and are then filtered against the merged job
// states: a lease whose job is terminal or missing is dropped, never
// offered for adoption.
func loadRecords(dir string) (map[string]jobRecord, map[string]LeaseRecord, int64, error) {
	recs := map[string]jobRecord{}
	leases := map[string]LeaseRecord{}
	var seq int64
	if data, err := os.ReadFile(filepath.Join(dir, snapshotName)); err == nil {
		snap, err := decodeSnapshot(data)
		if err != nil {
			return nil, nil, 0, err
		}
		seq = snap.Seq
		for _, rec := range snap.Jobs {
			recs[rec.ID] = rec
		}
		for _, lr := range snap.Leases {
			leases[lr.JobID] = lr
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, 0, err
	}

	f, err := os.Open(filepath.Join(dir, walName))
	if err != nil {
		if !os.IsNotExist(err) {
			return nil, nil, 0, err
		}
	} else {
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64<<10), maxRecordBytes)
		for sc.Scan() {
			rec, err := decodeRecord(sc.Bytes())
			if err != nil {
				// A torn or corrupt line ends replay at the last intact record
				// — the records behind it are already durable.
				break
			}
			if rec.Seq > seq {
				seq = rec.Seq
			}
			switch rec.Op {
			case opDelRec:
				delete(recs, rec.ID)
				delete(leases, rec.ID)
			case opLease:
				leases[rec.ID] = *rec.Lease
			case opUnlease:
				delete(leases, rec.ID)
			default:
				if prev, ok := recs[rec.ID]; ok && stateRank(rec.State) < stateRank(prev.State) {
					continue
				}
				recs[rec.ID] = rec
			}
		}
		// A scanner error (oversized line) likewise truncates replay.
	}
	for id := range leases {
		rec, ok := recs[id]
		if !ok || terminal(rec.State) {
			delete(leases, id)
		}
	}
	return recs, leases, seq, nil
}

// recordOf snapshots a job into its persisted form; the caller holds the
// store mutex.
func recordOf(op storeOp, j *job, seq int64) jobRecord {
	rec := jobRecord{
		Seq:       seq,
		ID:        j.id,
		State:     j.state,
		Engines:   j.engines,
		Config:    j.config,
		Graph:     j.rawGraph,
		System:    j.rawSystem,
		Created:   j.created,
		Started:   j.started,
		Finished:  j.finished,
		Cancelled: j.cancelled,
		Error:     j.errMessage,
		Result:    j.result,
	}
	if op == opDelete {
		// Tombstones carry no payload; replay only needs the ID.
		return jobRecord{Op: opDelRec, Seq: seq, ID: j.id}
	}
	rec.Op = opPutRec
	rec.Expanded, rec.Generated = j.progress.Snapshot()
	rec.PrunedEquiv, rec.PrunedFTO = j.progress.SnapshotPruned()
	if j.trace != nil {
		// Spill the trace so the timeline survives a restart. The recorder
		// takes its own (leaf) mutex under the store mutex; it never locks
		// back into the store.
		rec.TraceID = j.trace.TraceID()
		rec.Spans, rec.DroppedSpans = j.trace.Snapshot()
	}
	return rec
}

// toJob rebuilds a live job from a recovered record. Jobs that were
// queued or running when the process died are rewritten as failed with an
// "interrupted" error — their solver state is unrecoverable, and an
// honest terminal state beats a job stuck "running" forever — unless
// resumable is set: a job with a live lease record was solving on a
// cluster worker that may still be alive, so it keeps its state and an
// open done channel for Server.ResumeRecovered to re-dispatch. A spilled
// trace is reseeded either way, so /v1/jobs/{id}/trace spans the restart.
func (rec jobRecord) toJob(now time.Time, resumable bool) (*job, error) {
	g, err := taskgraph.FromJSON(rec.Graph)
	if err != nil {
		return nil, fmt.Errorf("server: job %s: recovering graph: %w", rec.ID, err)
	}
	sys, err := procgraph.FromJSON(rec.System)
	if err != nil {
		return nil, fmt.Errorf("server: job %s: recovering system: %w", rec.ID, err)
	}
	if !terminal(rec.State) && !resumable {
		rec.Error = fmt.Sprintf("interrupted: daemon restarted while the job was %s", rec.State)
		rec.State = StateFailed
		rec.Finished = now
		rec.Result = nil
	}
	j := &job{
		id:         rec.ID,
		graph:      g,
		system:     sys,
		engines:    rec.Engines,
		config:     rec.Config,
		rawGraph:   rec.Graph,
		rawSystem:  rec.System,
		cancel:     func() {},
		progress:   &solverpool.Progress{},
		done:       make(chan struct{}),
		state:      rec.State,
		created:    rec.Created,
		started:    rec.Started,
		finished:   rec.Finished,
		cancelled:  rec.Cancelled,
		result:     rec.Result,
		errMessage: rec.Error,
	}
	if rec.TraceID != "" {
		// Jobs persisted before traces were spilled keep a nil recorder
		// (and /trace keeps answering 404 for them).
		j.trace = obs.NewRecorderSeeded(rec.TraceID, rec.Spans)
	}
	j.progress.Record(rec.Expanded, rec.Generated)
	j.progress.RecordPruned(rec.PrunedEquiv, rec.PrunedFTO)
	if terminal(j.state) {
		close(j.done) // recovered terminal jobs: waiters must not block
	}
	if j.result != nil {
		j.result.State = j.state
	}
	return j, nil
}

// idSeq extracts the numeric suffix of a job-N ID (0 if malformed).
func idSeq(id string) int64 {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "job-"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// fileStore is the durable JobStore: the in-memory store plus a WAL the
// memStore's mutation sink appends to under the store mutex (keeping the
// on-disk history ordered exactly like the in-memory one), compacted into
// a snapshot every compactEvery records.
type fileStore struct {
	*memStore
	dir        string
	wal        *os.File
	walRecords int
	// leases is the live cluster lease table (see lease.go), journaled
	// through the same WAL and guarded by the same store mutex.
	leases map[string]LeaseRecord
	// adoptable are the leases that survived the last recovery, frozen at
	// open time for the coordinator's adoption window.
	adoptable []LeaseRecord
	// resumed are the non-terminal jobs recovered live because a lease
	// record vouched for them; Server.ResumeRecovered re-dispatches them.
	resumed []*job
}

// openFileStore opens (or creates) the store directory, recovers the
// retained jobs, rewrites a fresh snapshot reflecting the recovered state
// (so interruption rewrites are durable and the next start replays
// nothing), and arms the WAL sink.
func openFileStore(dir string, cap int, ttl time.Duration, cache *solverpool.ResultCache) (*fileStore, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	fs := &fileStore{memStore: newStore(cap, ttl, cache), dir: dir, leases: map[string]LeaseRecord{}}
	recs, leases, seq, err := loadRecords(dir)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	for _, rec := range recs {
		_, resumable := leases[rec.ID]
		j, err := rec.toJob(now, resumable)
		if err != nil {
			// A record whose instance no longer parses is unrecoverable;
			// drop it rather than refuse every other job.
			fmt.Fprintln(os.Stderr, "icpp98d:", err)
			delete(leases, rec.ID)
			continue
		}
		fs.jobs[j.id] = j
		if !terminal(j.state) {
			fs.resumed = append(fs.resumed, j)
		}
		if n := idSeq(j.id); n > seq {
			seq = n
		}
	}
	fs.leases = leases
	for _, lr := range leases {
		fs.adoptable = append(fs.adoptable, lr)
	}
	sort.Slice(fs.adoptable, func(i, k int) bool { return fs.adoptable[i].JobID < fs.adoptable[k].JobID })
	sort.Slice(fs.resumed, func(i, k int) bool { return idSeq(fs.resumed[i].id) < idSeq(fs.resumed[k].id) })
	fs.seq = seq
	// Respect the capacity bound on the recovered population (a smaller
	// -store than the previous run, say) by evicting oldest-terminal.
	for len(fs.jobs) > cap {
		if !fs.evictOldestTerminalLocked() {
			break
		}
	}
	if err := fs.compactLocked(); err != nil {
		return nil, err
	}
	fs.sink = fs.appendLocked
	return fs, nil
}

// add marshals the instance into its canonical persisted form before
// admission, so the sink (running under the store mutex) never marshals.
func (fs *fileStore) add(j *job) (string, error) {
	var err error
	if j.rawGraph, err = json.Marshal(j.graph); err != nil {
		return "", err
	}
	if j.rawSystem, err = json.Marshal(j.system); err != nil {
		return "", err
	}
	return fs.memStore.add(j)
}

// appendLocked is the memStore sink: persist one mutation. Called under
// the store mutex; file errors are reported but do not fail the mutation
// — the in-memory store stays authoritative for the live process.
func (fs *fileStore) appendLocked(op storeOp, j *job) {
	// Terminal records are the ones a restart must not lose.
	fs.writeRecordLocked(recordOf(op, j, fs.seq), op == opPut && terminal(j.state))
	if op == opDelete {
		// A job leaving the store takes its lease with it; the delete
		// tombstone already clears the lease on replay (loadRecords), so no
		// separate unlease line is needed.
		delete(fs.leases, j.id)
	}
}

// writeRecordLocked appends one record to the WAL (fsyncing when asked)
// and compacts at the growth bound; the caller holds the store mutex.
func (fs *fileStore) writeRecordLocked(rec jobRecord, sync bool) {
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "icpp98d: persisting job record:", err)
		return
	}
	if _, err := fs.wal.Write(append(line, '\n')); err != nil {
		fmt.Fprintln(os.Stderr, "icpp98d: appending to WAL:", err)
		return
	}
	fs.walRecords++
	if sync {
		fs.wal.Sync()
	}
	if fs.walRecords >= compactEvery {
		if err := fs.compactLocked(); err != nil {
			fmt.Fprintln(os.Stderr, "icpp98d: compacting job store:", err)
		}
	}
}

// compactLocked writes a snapshot of the live table (temp file + fsync +
// rename, so a crash leaves either the old or the new snapshot intact)
// and truncates the WAL. Called under the store mutex, or before
// concurrency starts.
func (fs *fileStore) compactLocked() error {
	snap := storeSnapshot{Schema: storeSchema, Seq: fs.seq, Jobs: []jobRecord{}}
	for _, j := range fs.jobs {
		snap.Jobs = append(snap.Jobs, recordOf(opPut, j, fs.seq))
	}
	sort.Slice(snap.Jobs, func(i, k int) bool { return idSeq(snap.Jobs[i].ID) < idSeq(snap.Jobs[k].ID) })
	for _, lr := range fs.leases {
		snap.Leases = append(snap.Leases, lr)
	}
	sort.Slice(snap.Leases, func(i, k int) bool { return idSeq(snap.Leases[i].JobID) < idSeq(snap.Leases[k].JobID) })
	data, err := json.MarshalIndent(&snap, "", " ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(fs.dir, snapshotName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(fs.dir, snapshotName)); err != nil {
		return err
	}
	// Truncate the WAL only after the snapshot rename: a crash in between
	// replays the absorbed records idempotently on top of the snapshot.
	if fs.wal != nil {
		fs.wal.Close()
	}
	wal, err := os.Create(filepath.Join(fs.dir, walName))
	if err != nil {
		return err
	}
	fs.wal = wal
	fs.walRecords = 0
	return nil
}

// recovered implements JobStore: the jobs recovered live at open because
// a lease record vouched for them.
func (fs *fileStore) recovered() []*job {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]*job(nil), fs.resumed...)
}

// close compacts one last time (making the snapshot the complete record
// and leaving an empty WAL) and releases the file.
func (fs *fileStore) close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	err := fs.compactLocked() //icpp98:allow lockscope final compaction under the store mutex IS the shutdown durability contract (WAL design)
	if fs.wal != nil {
		if cerr := fs.wal.Close(); err == nil { //icpp98:allow lockscope releases the WAL file inside the same sanctioned shutdown section
			err = cerr
		}
		fs.wal = nil
	}
	// Disarm the sink: any straggling mutation after close stays in memory.
	fs.sink = nil
	return err
}

package server

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/solverpool"
)

// Job states. A job is terminal in StateDone, StateFailed, or
// StateCancelled; only terminal jobs are evicted.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// job is one submitted solve and everything its lifecycle accumulates. The
// mutable fields are guarded by the owning store's mutex; progress is
// internally atomic so the running search never takes the store lock.
type job struct {
	id string
	// inst is the job's instance, shared with every job that submitted the
	// same instance bytes (admit.go). The file-backed store encodes it at
	// admission, so every persisted record (and a restart's recovery)
	// carries the instance verbatim.
	inst    *instance
	engines []string
	config  JobConfig // the submitter's wire budget, re-serialized for cluster leases

	// cacheKey addresses this submission in the schedule cache; cacheOK
	// marks the key valid (cache enabled), cacheBypass that the submitter
	// asked to skip the lookup. Both are immutable after admission.
	cacheKey    solverpool.CacheKey
	cacheOK     bool
	cacheBypass bool
	cacheNote   string // "" | "hit" | "bypass", surfaced in JobStatus.Cache

	cancel   context.CancelFunc
	progress *core.Progress
	done     chan struct{} // closed when the job reaches a terminal state
	eventSeq int64         // /events snapshots emitted so far (across all streams)

	// trace is the job's span recorder, created at submission; nil only on
	// jobs recovered from a persisted store (traces are in-memory only —
	// a restart keeps results fetchable, not their timelines).
	trace *obs.Recorder
	// ring is the sampled search telemetry, installed when the job's solve
	// actually starts (a cache hit never gets one) — atomic because the
	// run goroutine installs it while trace handlers read.
	ring atomic.Pointer[obs.Ring]
	// stopSampler quiesces the telemetry sampler (idempotent; nil until
	// the sampler starts). finishJob calls it before the closing log so
	// even a sub-interval job's summary carries its final counters.
	stopSampler atomic.Pointer[func()]

	state      string
	created    time.Time
	started    time.Time
	finished   time.Time
	cancelled  bool // cancellation was requested (job cancel or shutdown)
	result     *JobResult
	errMessage string
}

// JobStore is the retention layer behind the Server: the in-memory
// memStore is the default, and the file-backed fileStore layers an
// append-only WAL plus snapshot compaction on top of it so a daemon
// restart recovers its jobs (see persist.go). The interface is satisfied
// in-package only — the job type carries live state (contexts, channels)
// that cannot cross a process boundary; what persists is the jobRecord.
type JobStore interface {
	// add admits a new job, assigning its ID; it fails with errStoreFull
	// when the store is at capacity with no terminal job to evict.
	add(j *job) (string, error)
	// remove unconditionally drops a job that must leave no record.
	remove(id string)
	// get returns the job, or nil if unknown or expired.
	get(id string) *job
	// list returns every retained job, oldest first.
	list() []*job
	// count returns the retained-job population (terminal jobs included).
	count() int
	// active counts the queued and running jobs.
	active() int
	// stateCounts returns the retained-job population per state.
	stateCounts() map[string]int
	// markRunning transitions queued → running (idempotently).
	markRunning(j *job) bool
	// finish moves a job to its terminal state and returns that state, or
	// "" when the job was already terminal; a done job's cache fill, when
	// non-nil, enters the schedule cache first.
	finish(j *job, result *JobResult, errMessage string, fill *cacheFill) string
	// noteInterrupted flags the job as cancelled without firing its context.
	noteInterrupted(j *job)
	// requestCancel flags the job as cancelled and fires its context.
	requestCancel(j *job) bool
	// noteCache records how the schedule cache treated the submission.
	noteCache(j *job, note string)
	// status snapshots a job into its wire form.
	status(j *job) JobStatus
	// nextEvent snapshots a job for /events with the next sequence number.
	nextEvent(j *job) JobStatus
	// resultOf returns the job's result when it has one.
	resultOf(j *job) *JobResult
	// recovered returns the non-terminal jobs a restart brought back live
	// (file-backed store with lease records only); Server.ResumeRecovered
	// re-dispatches them.
	recovered() []*job
	// close releases any resources (files) the store holds.
	close() error
}

// storeOp tags a persistence-sink invocation.
type storeOp int

const (
	opPut    storeOp = iota // the job's current state must be persisted
	opDelete                // the job left the store (sweep, eviction, remove)
)

// memStore retains jobs in memory, bounded two ways: a terminal job is
// dropped once it finished more than ttl ago, and when the population hits
// cap the terminal job that finished first is evicted to admit a new one.
// Active jobs are never evicted — a full store of purely active jobs
// rejects new submissions, which is the backpressure a bounded service
// wants.
//
// Every request-path operation is O(1) amortized. The retained terminal
// jobs wait in byFinish, a queue in finish order: finish appends under mu,
// where it stamps j.finished, so the TTL sweep pops expired jobs off the
// head and eviction takes the head without scanning. nActive counts the
// queued and running jobs for active(). Only list and stateCounts, which
// serve the list endpoint and /metrics, walk the table.
type memStore struct {
	mu   sync.Mutex //icpp98:lockscope every request path crosses this store
	jobs map[string]*job
	// byFinish holds exactly the retained terminal jobs, earliest finish
	// first; nActive is the number of retained jobs not in it.
	byFinish jobQueue
	nActive  int
	cap      int
	ttl      time.Duration
	seq      int64
	now      func() time.Time // injectable clock for eviction tests
	// sink, when non-nil, observes every mutation under mu — the hook the
	// file-backed store persists through. Running it under the lock keeps
	// the WAL ordered exactly like the in-memory history.
	sink func(op storeOp, j *job)
	// cache is the schedule cache finish fills (nil when disabled).
	cache *solverpool.ResultCache[JobResult]
}

func newStore(cap int, ttl time.Duration, cache *solverpool.ResultCache[JobResult]) *memStore {
	return &memStore{jobs: map[string]*job{}, cap: cap, ttl: ttl, now: time.Now, cache: cache}
}

// errStoreFull reports an admission rejection (HTTP 503).
var errStoreFull = fmt.Errorf("server: job store is full of active jobs")

// add admits a new job, sweeping expired entries and evicting the oldest
// terminal job if the store is at capacity.
func (st *memStore) add(j *job) (string, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked()
	if len(st.jobs) >= st.cap {
		if !st.evictOldestTerminalLocked() {
			return "", errStoreFull
		}
	}
	st.seq++
	j.id = fmt.Sprintf("job-%d", st.seq)
	j.state = StateQueued
	j.created = st.now()
	j.done = make(chan struct{})
	st.jobs[j.id] = j
	st.nActive++
	st.persistLocked(opPut, j)
	return j.id, nil
}

// remove unconditionally drops a job, used when an admitted job loses the
// race against server shutdown and must leave no record (its submitter was
// told 503).
func (st *memStore) remove(id string) {
	st.mu.Lock()
	if j, ok := st.jobs[id]; ok {
		if terminal(j.state) {
			st.byFinish.remove(j)
		} else {
			st.nActive--
		}
		st.dropLocked(j)
	}
	st.mu.Unlock()
}

// get returns the job, or nil after sweeping if it is unknown or expired.
func (st *memStore) get(id string) *job {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked()
	return st.jobs[id]
}

// list returns every retained job, oldest first.
func (st *memStore) list() []*job {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked()
	out := make([]*job, 0, len(st.jobs))
	for _, j := range st.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].created.Before(out[k].created) })
	return out
}

// count returns the retained-job population.
func (st *memStore) count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked()
	return len(st.jobs)
}

// active counts the queued and running jobs — the population the backlog
// backpressure check compares against the aggregate solve capacity.
// Terminal-but-retained jobs never count here: retention (and, with a
// file-backed store, recovery) must not wedge admission.
func (st *memStore) active() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.nActive
}

// stateCounts returns the retained-job population per state — the
// /metrics gauge family.
func (st *memStore) stateCounts() map[string]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked()
	out := map[string]int{}
	for _, j := range st.jobs {
		out[j.state]++
	}
	return out
}

// sweepLocked drops terminal jobs whose TTL has lapsed. They are the head
// of byFinish, so it stops at the first job still within the TTL.
func (st *memStore) sweepLocked() {
	if st.ttl <= 0 {
		return
	}
	cutoff := st.now().Add(-st.ttl)
	for j := st.byFinish.front(); j != nil && j.finished.Before(cutoff); j = st.byFinish.front() {
		st.dropLocked(st.byFinish.pop())
	}
}

// evictOldestTerminalLocked removes the terminal job that finished first;
// it reports false when every retained job is still active.
func (st *memStore) evictOldestTerminalLocked() bool {
	j := st.byFinish.pop()
	if j == nil {
		return false
	}
	st.dropLocked(j)
	return true
}

// dropLocked deletes a job from the table and persists the deletion; the
// caller has already taken it off byFinish or out of nActive.
func (st *memStore) dropLocked(j *job) {
	delete(st.jobs, j.id)
	st.persistLocked(opDelete, j)
}

// jobQueue is a FIFO of jobs: the live jobs are buf[head:]. push first
// compacts the slice once at least half of it is popped slots, so each
// compaction copies no more jobs than were popped since the last one, and a
// queue that pops as often as it pushes keeps reusing one backing array.
type jobQueue struct {
	buf  []*job
	head int
}

// front returns the oldest job, or nil when the queue is empty.
func (q *jobQueue) front() *job {
	if q.head == len(q.buf) {
		return nil
	}
	return q.buf[q.head]
}

// pop removes and returns the oldest job, or nil when the queue is empty.
func (q *jobQueue) pop() *job {
	j := q.front()
	if j != nil {
		q.buf[q.head] = nil
		q.head++
	}
	return j
}

// push appends j as the newest job.
func (q *jobQueue) push(j *job) {
	if q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, j)
}

// remove takes j out of the queue wherever it sits. It scans, so it is
// O(n); only memStore.remove calls it, for a job that is already terminal.
func (q *jobQueue) remove(j *job) {
	live := q.buf[q.head:]
	for i, x := range live {
		if x == j {
			copy(live[i:], live[i+1:])
			live[len(live)-1] = nil
			q.buf = q.buf[:len(q.buf)-1]
			return
		}
	}
}

// persistLocked feeds the persistence sink; a no-op for the pure
// in-memory store.
func (st *memStore) persistLocked(op storeOp, j *job) {
	if st.sink != nil {
		st.sink(op, j)
	}
}

// recovered implements JobStore; the in-memory store never recovers jobs.
func (st *memStore) recovered() []*job { return nil }

// close implements JobStore; the in-memory store holds no resources.
func (st *memStore) close() error { return nil }

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// markRunning transitions queued → running, idempotently: a job that is
// already running stays running and still reports true (a job resumed
// after a restart was running before it). It reports
// false only for a terminal job — cancelled while still queued — in which
// case the caller must not run the solve.
func (st *memStore) markRunning(j *job) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.state = StateRunning
		j.started = st.now()
		if j.trace != nil {
			// The queue span is closed here, at the one place every path —
			// local solve, cluster lease, cache hit — funnels through.
			j.trace.RecordTimed("queue", obs.OriginDaemon, j.created, j.started)
		}
		st.persistLocked(opPut, j)
		return true
	case StateRunning:
		return true
	default:
		return false
	}
}

// finish moves a job to its terminal state, wakes every waiter, and
// returns the state it settled in ("" when the job was already terminal).
// The terminal state is derived from how the solve ended: an explicit
// error is a failure; a cancellation request wins over the result an
// interrupted engine still returned (the result is kept — a cancelled
// search hands back its best incumbent).
//
// fill, when non-nil, is the result as the schedule cache memoizes it.
// A job that settles done stores it under its cache key, and every job
// records its persist span (the terminal store write — the WAL append,
// when the store is file-backed — and the cache fill), both before the
// waiters wake and the lock is released. Every reader of the terminal
// state (status, /events, the result, the trace) takes this lock or waits
// on j.done, so it also sees the cache entry and the span: a client that
// sees done and resubmits is a cache hit.
func (st *memStore) finish(j *job, result *JobResult, errMessage string, fill *cacheFill) string {
	start := st.now()
	st.mu.Lock()
	defer st.mu.Unlock()
	if terminal(j.state) {
		return ""
	}
	j.finished = st.now()
	j.result = result
	j.errMessage = errMessage
	switch {
	case errMessage != "":
		j.state = StateFailed
	case j.cancelled:
		j.state = StateCancelled
	default:
		j.state = StateDone
	}
	if j.result != nil {
		j.result.State = j.state
	}
	st.nActive--
	st.byFinish.push(j)
	st.persistLocked(opPut, j)
	if j.state == StateDone && fill != nil {
		st.cache.Put(j.cacheKey, j.inst.graph, j.inst.system, fill.result, fill.size)
	}
	if j.trace != nil {
		j.trace.RecordTimed("persist", obs.OriginDaemon, start, st.now(), "state", j.state)
	}
	close(j.done)
	return j.state
}

// noteInterrupted flags the job as cancelled without firing its context —
// the record of a context that was already interrupted from outside (job
// cancellation or server shutdown), consulted when the job finishes.
func (st *memStore) noteInterrupted(j *job) {
	st.mu.Lock()
	if !terminal(j.state) {
		j.cancelled = true
	}
	st.mu.Unlock()
}

// requestCancel flags the job as cancelled and fires its context. It is
// idempotent; it reports false when the job was already terminal.
func (st *memStore) requestCancel(j *job) bool {
	st.mu.Lock()
	already := terminal(j.state)
	if !already {
		j.cancelled = true
	}
	st.mu.Unlock()
	if !already {
		j.cancel()
	}
	return !already
}

// noteCache records how the schedule cache treated the submission ("hit"
// or "bypass"); surfaced as JobStatus.Cache.
func (st *memStore) noteCache(j *job, note string) {
	st.mu.Lock()
	j.cacheNote = note
	st.mu.Unlock()
}

// status snapshots a job into its wire form.
func (st *memStore) status(j *job) JobStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := JobStatus{
		ID:      j.id,
		State:   j.state,
		Engines: j.engines,
		Created: j.created.UTC().Format(time.RFC3339Nano),
		Cache:   j.cacheNote,
		Error:   j.errMessage,
	}
	if !j.started.IsZero() {
		out.Started = j.started.UTC().Format(time.RFC3339Nano)
		end := st.now()
		if !j.finished.IsZero() {
			end = j.finished
		}
		out.Progress.ElapsedMS = end.Sub(j.started).Milliseconds()
	}
	if !j.finished.IsZero() {
		out.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	p := j.progress.Snapshot()
	out.Progress.Expanded, out.Progress.Generated = p.Expanded, p.Generated
	out.Progress.PrunedEquiv, out.Progress.PrunedFTO = p.PrunedEquiv, p.PrunedFTO
	if j.result != nil {
		out.Length = j.result.Length
		out.Optimal = j.result.Optimal
	}
	return out
}

// nextEvent snapshots a job for the /events stream, stamping it with the
// job's next event sequence number. The counter lives on the job, not the
// connection, so a watcher that reconnects with Last-Event-ID always sees
// strictly larger values than it already printed.
func (st *memStore) nextEvent(j *job) JobStatus {
	st.mu.Lock()
	j.eventSeq++
	seq := j.eventSeq
	st.mu.Unlock()
	out := st.status(j)
	out.Seq = seq
	return out
}

// resultOf returns the job's result when it has one (done, or cancelled
// with a kept incumbent).
func (st *memStore) resultOf(j *job) *JobResult {
	st.mu.Lock()
	defer st.mu.Unlock()
	return j.result
}

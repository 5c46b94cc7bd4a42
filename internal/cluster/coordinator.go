// Package cluster turns the one-node solve daemon into a horizontally
// scalable service: a Coordinator embedded in icpp98d leases queued jobs
// to remote workers over HTTP/JSON, and the Worker runtime (cmd/
// icpp98worker) registers with a coordinator, pulls leases, solves them on
// its local solver pool, and streams progress and results back.
//
// The client-facing job API is unchanged in both modes. The coordinator
// implements server.ClusterBackend: its pending queue is the clustered
// daemon's only job queue, and every free slot drains it — a remote
// worker's through a lease, a daemon pool slot through a direct call
// under the coordinator lock (no lease, no journal record, no reports: a
// local slot lives and dies with the coordinator's process). Placement is
// remote-first, decided when a job is handed out: a local slot takes a job
// only when no live worker the job may run on has a free slot for it, so
// a daemon with no workers serves every job from its own pool. Liveness is
// heartbeat-based — lease polls and job reports refresh a worker's
// last-seen time — and every lease carries a deadline: a job on a dead or
// silent worker is re-queued onto the survivors (or a local slot) with a
// bounded retry count, after which it fails with the collected reason. The
// parallelization story follows the multi-machine scaling of optimal task
// scheduling in Orr & Sinnen and Akram et al. (PAPERS.md): whole-job
// sharding here, the substrate for search-tree sharding later.
//
// See DESIGN.md §9 for the lease lifecycle and the backpressure math, and
// docs/API.md for the /v1/workers endpoints.
package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

// newLeaseToken mints a lease's adoption credential: 32 hex characters of
// entropy, unguessable by any worker that was not handed the grant.
// Called outside the coordinator mutex — the system randomness read must
// not ride the lease-table lock.
func newLeaseToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("token-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Config tunes the coordinator's failure detection. The zero value is
// production-usable; tests shrink the durations.
type Config struct {
	// LeaseTTL is how long a leased job may go unreported before it is
	// re-queued; every report extends it. <= 0 selects 15s.
	LeaseTTL time.Duration
	// WorkerTimeout is how long a worker may go entirely silent (no lease
	// poll, report, or heartbeat) before it is deregistered and its leases
	// re-queued. <= 0 selects 10s.
	WorkerTimeout time.Duration
	// MaxAttempts bounds the attempts a job may lose to worker death or
	// lease expiry before it fails with the collected reasons (graceful
	// hand-backs are free). < 1 selects 3.
	MaxAttempts int
	// PollWait caps how long a lease long-poll is held. <= 0 selects 5s.
	PollWait time.Duration
	// ReportInterval is the progress cadence advertised to workers.
	// <= 0 selects 1s.
	ReportInterval time.Duration
	// ReapInterval is the failure-detector tick. <= 0 selects a quarter of
	// the smaller of LeaseTTL and WorkerTimeout.
	ReapInterval time.Duration
	// AdoptGrace is how long a restarted coordinator holds a recovered
	// lease open for its worker to long-poll back and re-adopt it. A lease
	// whose worker never returns inside the window is re-queued without
	// charging the job's retry budget (the worker did nothing wrong — the
	// coordinator is the one that died). <= 0 selects 2×LeaseTTL.
	AdoptGrace time.Duration
	// Leases, when non-nil, is the durable lease journal (the file-backed
	// job store implements it — server.LeaseStore): every grant and
	// adoption is persisted and every resolution tombstoned, and the
	// coordinator reads the surviving records back at construction to park
	// them for adoption. Nil keeps the lease table memory-only.
	Leases server.LeaseStore
	// Logger receives the coordinator's structured log records — worker
	// registration/reaping, lease grants, failovers — stamped with each
	// job's trace_id; nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.WorkerTimeout <= 0 {
		c.WorkerTimeout = 10 * time.Second
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = 3
	}
	if c.PollWait <= 0 {
		c.PollWait = 5 * time.Second
	}
	if c.ReportInterval <= 0 {
		c.ReportInterval = time.Second
	}
	// A lease must comfortably outlive the report cadence, or healthy
	// workers' leases expire between reports and every clustered job
	// burns its attempts on spurious failovers. Clamp the advertised
	// cadence to a third of the TTL rather than let a small -lease-ttl
	// fail the whole fleet.
	if c.ReportInterval > c.LeaseTTL/3 {
		c.ReportInterval = c.LeaseTTL / 3
	}
	// Likewise an idle worker is only heard from at the top of each lease
	// long-poll: the poll hold must sit well inside the worker timeout or
	// healthy idle workers get reaped mid-wait and flap through
	// re-registration forever.
	if c.PollWait > c.WorkerTimeout/2 {
		c.PollWait = c.WorkerTimeout / 2
	}
	if c.ReapInterval <= 0 {
		c.ReapInterval = min(c.LeaseTTL, c.WorkerTimeout) / 4
	}
	if c.AdoptGrace <= 0 {
		c.AdoptGrace = 2 * c.LeaseTTL
	}
	return c
}

// workerState is the coordinator's record of one registered worker.
type workerState struct {
	id       string
	name     string
	capacity int
	engines  []string
	lastSeen time.Time
	jobsDone int64
	leased   map[string]*task // job ID → task
}

// outcome resolves one dispatched task, mirroring the solve contract:
// nil res + empty errMessage is a result-less end (cancellation).
type outcome struct {
	res        *server.JobResult
	errMessage string
}

// task is one dispatched job's lease-table entry.
type task struct {
	job  server.DispatchJob
	ctx  context.Context
	done chan outcome // buffered(1); receives exactly one outcome

	attempts    int             // leases granted (1-based on the wire)
	failures    int             // attempts lost to death/expiry — what MaxAttempts bounds
	excluded    map[string]bool // workers that already failed (or handed back) this job
	worker      string          // "" while pending or on a local slot
	workerName  string          // the leased worker's human label, for spans/logs
	leaseStart  time.Time       // when the current lease was granted
	leaseExpiry time.Time
	started     bool
	reasons     []string // failure reason of each abandoned/expired attempt
	// base accumulates the counters of completed attempts; last holds the
	// current attempt's reported totals (folded into base on re-queue).
	base, last core.ProgressSnapshot
	resolved   bool
	// local marks a task taken by a local slot: it is neither pending nor
	// leased, and only its solve resolves it.
	local bool

	// token is the lease's adoption credential (see LeasedJob.Token);
	// leased marks a durable lease record journaled for this task, so
	// resolutions know to tombstone it.
	token  string
	leased bool
	// adopting marks a recovered lease waiting inside the grace window for
	// its worker to re-register; the task is neither pending nor leased to
	// a live worker while set.
	adopting bool
}

// parkedLease is a lease recovered from the durable journal whose job has
// not been re-dispatched yet (Server.ResumeRecovered races worker
// re-registration; either may arrive first). A worker that re-registers
// first binds itself here, and any reports it sends before the job's
// Dispatch arrives are buffered (latest wins — reports carry absolute
// totals, and a terminal report is never overwritten by a progress one).
type parkedLease struct {
	rec        server.LeaseRecord
	workerID   string // bound at re-registration; "" until then
	workerName string
	report     *ReportRequest
}

// Coordinator is the cluster's control plane: the worker registry, the
// pending-job queue, and the lease table, behind one mutex. It implements
// server.ClusterBackend; mount it with server.EnableCluster.
type Coordinator struct {
	cfg Config
	log *slog.Logger
	mux *http.ServeMux

	mu      sync.Mutex //icpp98:lockscope guards the lease table on every poll/report
	workers map[string]*workerState
	tasks   map[string]*task // every unresolved dispatched job
	pending []*task          // FIFO subset of tasks awaiting a lease
	wake    chan struct{}    // closed+replaced to wake lease long-polls
	seq     int64
	// parked holds the recovered leases awaiting their job's re-dispatch;
	// adoptUntil is the grace deadline every recovered lease shares (the
	// coordinator's start plus AdoptGrace).
	parked     map[string]*parkedLease
	adoptUntil time.Time

	dispatched int64
	failovers  int64
	adoptions  int64

	closeOnce sync.Once
	closed    chan struct{}
	local     sync.WaitGroup // the local slots, waited for by Close
}

// NewCoordinator builds a coordinator and starts its failure detector;
// ServeLocal (server.EnableCluster calls it) starts its local slots.
// With a durable lease journal configured, the previous incarnation's
// surviving leases are parked for adoption synchronously here — before
// any HTTP traffic can arrive — so a worker that re-registers is never
// told to abandon a lease the journal still vouches for. Close it to stop
// the detector and the local slots.
func NewCoordinator(cfg Config) *Coordinator {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	c := &Coordinator{
		cfg:     cfg.withDefaults(),
		log:     logger,
		workers: map[string]*workerState{},
		tasks:   map[string]*task{},
		parked:  map[string]*parkedLease{},
		wake:    make(chan struct{}),
		closed:  make(chan struct{}),
	}
	c.adoptUntil = time.Now().Add(c.cfg.AdoptGrace)
	if c.cfg.Leases != nil {
		for _, rec := range c.cfg.Leases.RecoveredLeases() {
			c.parked[rec.JobID] = &parkedLease{rec: rec}
			c.log.Info("lease parked for adoption",
				"job", rec.JobID, "trace_id", rec.TraceID,
				"worker_id", rec.WorkerID, "attempt", rec.Attempt,
				"grace_ms", c.cfg.AdoptGrace.Milliseconds())
		}
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("GET /v1/workers", c.handleList)
	c.mux.HandleFunc("POST /v1/workers/register", c.handleRegister)
	c.mux.HandleFunc("POST /v1/workers/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("POST /v1/workers/leave", c.handleLeave)
	c.mux.HandleFunc("POST /v1/workers/lease", c.handleLease)
	c.mux.HandleFunc("POST /v1/workers/jobs/{id}/report", c.handleReport)
	go c.reap()
	return c
}

// Handler implements server.ClusterBackend.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// msgClosed fails the tasks still unresolved when the coordinator
// closes, and refuses dispatches that arrive after.
const msgClosed = "cluster: coordinator closed"

// Close stops the failure detector, fails every unresolved task, so no
// Dispatch caller is left blocked, and returns once the local slots have
// exited. Close the server first: that cancels every job, so no local
// solve is left running.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.mu.Lock()
		for _, t := range c.tasks {
			c.resolveLocked(t, outcome{errMessage: msgClosed})
		}
		c.mu.Unlock()
	})
	c.local.Wait()
}

// ServeLocal implements server.ClusterBackend: it starts slots local
// consumers of the pending queue, each solving the jobs it takes with
// solve, until Close.
func (c *Coordinator) ServeLocal(slots int, solve server.LocalSolve) {
	c.local.Add(slots)
	for range slots {
		go func() {
			defer c.local.Done()
			c.serveLocal(solve)
		}()
	}
}

// serveLocal is one local slot: take the next job no remote worker is
// free to run, solve it outside the lock, resolve it, repeat. It sleeps on
// the broadcast channel, which every change to the placement answer (an
// enqueue, grant, requeue, registration, leave, or reap) closes.
func (c *Coordinator) serveLocal(solve server.LocalSolve) {
	for {
		c.mu.Lock()
		t, started := c.takeLocalLocked()
		wake := c.wake
		c.mu.Unlock()
		if t == nil {
			select {
			case <-wake:
				continue
			case <-c.closed:
				return
			}
		}
		if started != nil {
			started()
		}
		res, errMessage := solve(t.ctx, t.job)
		c.mu.Lock()
		c.resolveLocked(t, outcome{res: res, errMessage: errMessage})
		c.mu.Unlock()
	}
}

// takeLocalLocked pops the first pending task that no remote worker is
// free to run and marks it local. Placement is remote-first: walking the
// queue in FIFO order, each task that a live worker with a free slot may
// run claims one of the free remote slots, and only a task left without
// one is local work. It returns the job's Started callback, as
// grantLocked does.
func (c *Coordinator) takeLocalLocked() (*task, func()) {
	free := 0
	for _, w := range c.workers {
		free += max(w.capacity-len(w.leased), 0)
	}
	for i, t := range c.pending {
		if free > 0 && c.remoteFreeLocked(t) {
			free--
			continue
		}
		c.pending = append(c.pending[:i], c.pending[i+1:]...)
		t.local = true
		return t, t.startLocked()
	}
	return nil, nil
}

// remoteFreeLocked reports whether a live worker t may run has a free slot.
func (c *Coordinator) remoteFreeLocked(t *task) bool {
	for id, w := range c.workers {
		if len(w.leased) < w.capacity && !t.excluded[id] {
			return true
		}
	}
	return false
}

// startLocked returns the job's Started callback (to invoke outside the
// lock) the first time the job starts anywhere, nil after.
func (t *task) startLocked() func() {
	if t.started {
		return nil
	}
	t.started = true
	return t.job.Started
}

// broadcastLocked wakes every lease long-poll and idle local slot to
// re-check the queue.
func (c *Coordinator) broadcastLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// dropLeaseLocked tombstones the task's durable lease record, if one was
// journaled. The journal shares the job store's WAL; writing it here,
// under the coordinator mutex, is the same sanctioned durability-inside-
// the-lock trade the store's own sink makes.
func (c *Coordinator) dropLeaseLocked(t *task) {
	if !t.leased || c.cfg.Leases == nil {
		return
	}
	t.leased = false
	c.cfg.Leases.DropLease(t.job.ID) //icpp98:allow lockscope the lease journal must stay ordered with the lease table it records; same WAL-under-mutex contract as the job store sink
}

// putLeaseLocked journals the task's current grant.
func (c *Coordinator) putLeaseLocked(t *task) {
	if c.cfg.Leases == nil {
		return
	}
	t.leased = true
	c.cfg.Leases.PutLease(server.LeaseRecord{ //icpp98:allow lockscope the lease journal must stay ordered with the lease table it records; same WAL-under-mutex contract as the job store sink
		JobID:      t.job.ID,
		WorkerID:   t.worker,
		WorkerName: t.workerName,
		Token:      t.token,
		Attempt:    t.attempts,
		Granted:    t.leaseStart,
		Deadline:   t.leaseExpiry,
		TraceID:    t.job.TraceID,
	})
}

// resolveLocked delivers a task's outcome exactly once and drops it from
// the lease table and pending queue.
func (c *Coordinator) resolveLocked(t *task, out outcome) {
	if t.resolved {
		return
	}
	t.resolved = true
	c.dropLeaseLocked(t)
	delete(c.tasks, t.job.ID)
	for i, p := range c.pending {
		if p == t {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			break
		}
	}
	if t.worker != "" {
		if w := c.workers[t.worker]; w != nil {
			delete(w.leased, t.job.ID)
		}
	}
	t.done <- out //icpp98:allow lockscope buffered(1) and guarded by t.resolved: delivered at most once, the send can never block
}

// leaseSpanLocked closes the task's current lease attempt as one trace
// span — origin "coordinator", stamped with the worker, the 1-based
// attempt number, and how the attempt ended ("done", "error", or the
// failover reason). Called at every resolution point while t.worker
// still names the lease holder.
func (t *task) leaseSpanLocked(outcome string) {
	if t.job.Trace == nil || t.worker == "" {
		return
	}
	t.job.Trace.RecordTimed("lease", obs.OriginCoordinator, t.leaseStart, time.Now(),
		"worker", t.workerName,
		"worker_id", t.worker,
		"attempt", strconv.Itoa(t.attempts),
		"outcome", outcome)
}

// requeueLocked puts a leased task back in the queue after its worker
// died, went silent, or handed it back — or resolves it when retrying is
// pointless: cancelled (result-less cancelled end) or out of failure
// budget (failed with the collected reasons). budgeted distinguishes a
// real failure (death, expiry) from a graceful hand-back: only failures
// count against MaxAttempts, so a rolling restart of the fleet never turns
// a healthy job into a failed one — it just keeps re-homing until a steady
// worker (or a local slot) finishes it. The worker is excluded from this
// task either way: a draining or flaky worker must not be handed the same
// job straight back, and a task no remote worker may run waits for a
// local slot.
func (c *Coordinator) requeueLocked(t *task, reason string, budgeted bool) {
	c.failovers++
	t.leaseSpanLocked(reason)
	c.dropLeaseLocked(t)
	if t.worker != "" {
		t.excluded[t.worker] = true
		c.log.Warn("cluster failover",
			"job", t.job.ID, "trace_id", t.job.TraceID,
			"worker", t.workerName, "attempt", t.attempts,
			"reason", reason, "budgeted", budgeted)
	}
	if w := c.workers[t.worker]; w != nil {
		delete(w.leased, t.job.ID)
	}
	t.worker = ""
	t.leaseExpiry = time.Time{}
	t.base = t.base.AddCounters(t.last)
	t.last = core.ProgressSnapshot{}
	t.reasons = append(t.reasons, reason)
	if budgeted {
		t.failures++
	}
	switch {
	case t.ctx.Err() != nil:
		c.resolveLocked(t, outcome{})
	case t.failures >= c.cfg.MaxAttempts:
		c.resolveLocked(t, outcome{errMessage: fmt.Sprintf(
			"cluster: job gave out after %d failed attempts: %s", t.failures, strings.Join(t.reasons, "; "))})
	default:
		c.pending = append(c.pending, t)
		c.broadcastLocked()
	}
}

// reap is the failure detector: deregister silent workers (re-queueing
// their leases, and waking the local slots, which the dead worker's free
// slots no longer hold off) and re-queue expired leases.
func (c *Coordinator) reap() {
	ticker := time.NewTicker(c.cfg.ReapInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-ticker.C:
		}
		now := time.Now()
		c.mu.Lock()
		for id, w := range c.workers {
			if now.Sub(w.lastSeen) <= c.cfg.WorkerTimeout {
				continue
			}
			delete(c.workers, id)
			c.broadcastLocked()
			c.log.Warn("worker reaped",
				"worker", w.name, "worker_id", id,
				"silent_ms", now.Sub(w.lastSeen).Milliseconds(), "leased", len(w.leased))
			for _, t := range w.leased {
				c.requeueLocked(t, fmt.Sprintf("worker %s (%s) missed heartbeats", w.name, id), true)
			}
		}
		for _, t := range c.tasks {
			if t.worker != "" && now.After(t.leaseExpiry) {
				c.requeueLocked(t, fmt.Sprintf("lease expired on worker %s", t.worker), true)
			}
		}
		for _, t := range c.tasks {
			if !t.adopting || !now.After(c.adoptUntil) {
				continue
			}
			// The recovered lease's worker never came back. Re-queue without
			// charging the retry budget: the worker did nothing wrong and
			// neither did the job — the coordinator is the process that died.
			t.adopting = false
			if t.job.Trace != nil {
				t.job.Trace.RecordTimed("adopt", obs.OriginCoordinator, c.adoptUntil.Add(-c.cfg.AdoptGrace), now,
					"outcome", "expired", "attempt", strconv.Itoa(t.attempts))
			}
			c.requeueLocked(t, "adoption grace expired: the lease's worker never re-registered", false)
		}
		if len(c.parked) > 0 && now.After(c.adoptUntil) {
			// Recovered leases whose job was never re-dispatched (the server
			// failed it at resume, or it was cancelled): past the grace
			// window their bound workers get 410 on the next report and drop
			// the solve.
			for id, p := range c.parked {
				c.log.Warn("parked lease expired unclaimed", "job", id, "trace_id", p.rec.TraceID)
			}
			c.parked = map[string]*parkedLease{}
		}
		c.mu.Unlock()
	}
}

// Dispatch implements server.Dispatcher: enqueue the job and block until
// a remote worker or a local slot resolves it. A dispatch carrying a
// recovered lease (job.Resume) parks in the adoption window instead: its
// worker may still be long-polling its way back.
func (c *Coordinator) Dispatch(ctx context.Context, job server.DispatchJob) (*server.JobResult, string) {
	t := &task{
		job:      job,
		ctx:      ctx,
		done:     make(chan outcome, 1),
		excluded: map[string]bool{},
	}
	c.mu.Lock()
	// The closed re-check happens under the same critical section as the
	// enqueue: Close resolves the task table while holding the mutex, so
	// a task admitted here is either seen and failed by Close or refused
	// — never stranded between the two.
	select {
	case <-c.closed:
		c.mu.Unlock()
		return nil, msgClosed
	default:
	}
	var started func()
	if job.Resume != nil {
		started = c.resumeLocked(t, job.Resume)
	} else {
		c.tasks[job.ID] = t
		c.pending = append(c.pending, t)
		c.broadcastLocked()
	}
	c.mu.Unlock()
	if started != nil {
		started()
	}

	var out outcome
	select {
	case out = <-t.done:
	case <-ctx.Done():
		// Cancellation resolves promptly: a pending task ends result-less
		// here and now; a leased one likewise — its worker learns on the
		// next report (410) and stops within one expansion. A local slot's
		// solve sees the same context and returns its incumbent within one
		// expansion, so it resolves the task itself.
		c.mu.Lock()
		if !t.local {
			c.resolveLocked(t, outcome{})
		}
		c.mu.Unlock()
		out = <-t.done
	}
	return out.res, out.errMessage
}

// resumeLocked installs a re-dispatched recovered job into the lease
// table under its journaled lease. If the lease's worker already
// re-registered (and bound itself to the parked entry), the task is
// adopted on the spot and any buffered report — including a terminal one
// the worker sent while the job's re-dispatch was still in flight — is
// applied; otherwise the task waits in the adoption window for the worker
// to return, and reap re-queues it (unbudgeted) if it never does. Returns
// the job's Started callback for the caller to invoke outside the lock:
// the job was solving before the crash, so it reads running immediately,
// not queued.
func (c *Coordinator) resumeLocked(t *task, rec *server.LeaseRecord) func() {
	t.token = rec.Token
	t.attempts = rec.Attempt
	t.leased = true // the journal already carries this lease
	t.started = true
	c.tasks[t.job.ID] = t
	p := c.parked[t.job.ID]
	delete(c.parked, t.job.ID)
	var ws *workerState
	if p != nil && p.workerID != "" {
		ws = c.workers[p.workerID]
	}
	if ws == nil {
		t.adopting = true
		c.log.Info("recovered lease awaiting adoption",
			"job", t.job.ID, "trace_id", t.job.TraceID,
			"prev_worker_id", rec.WorkerID, "attempt", t.attempts,
			"grace_ms", time.Until(c.adoptUntil).Milliseconds())
		return t.job.Started
	}
	c.adoptLocked(t, ws)
	if p.report != nil {
		c.ingestReportLocked(t, ws, p.report)
	}
	return t.job.Started
}

// adoptLocked binds a recovered lease to the worker that re-presented its
// token: the solve continues under the worker's new ID on the same
// attempt number — no retry budget is charged, because nothing failed.
// The adopt span stretches from the coordinator's start to now: how long
// the lease hung in the air before its worker reclaimed it.
func (c *Coordinator) adoptLocked(t *task, ws *workerState) {
	now := time.Now()
	t.adopting = false
	t.worker = ws.id
	t.workerName = ws.name
	t.leaseStart = now
	t.leaseExpiry = now.Add(c.cfg.LeaseTTL)
	ws.leased[t.job.ID] = t
	c.adoptions++
	if t.job.Trace != nil {
		t.job.Trace.RecordTimed("adopt", obs.OriginCoordinator, c.adoptUntil.Add(-c.cfg.AdoptGrace), now,
			"worker", ws.name,
			"worker_id", ws.id,
			"attempt", strconv.Itoa(t.attempts),
			"outcome", "adopted")
	}
	c.putLeaseLocked(t)
	c.log.Info("lease adopted",
		"job", t.job.ID, "trace_id", t.job.TraceID,
		"worker", ws.name, "worker_id", ws.id, "attempt", t.attempts)
}

// rebindLocked moves a leased task to ws, the fresh identity of the worker
// that holds the lease: adoption is idempotent per token, so presenting
// the token again re-binds the lease instead of abandoning it. No failure
// is charged and no fresh lease granted; the worker the task leaves keeps
// nothing to fail over.
func (c *Coordinator) rebindLocked(t *task, ws *workerState) {
	from := t.worker
	if old := c.workers[from]; old != nil {
		delete(old.leased, t.job.ID)
	}
	t.worker = ws.id
	t.workerName = ws.name
	t.leaseExpiry = time.Now().Add(c.cfg.LeaseTTL)
	ws.leased[t.job.ID] = t
	c.putLeaseLocked(t)
	c.log.Info("lease re-bound to re-registered worker",
		"job", t.job.ID, "trace_id", t.job.TraceID,
		"worker", ws.name, "worker_id", ws.id, "from_worker_id", from)
}

// Capacity implements server.Dispatcher.
func (c *Coordinator) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		n += w.capacity
	}
	return n
}

// Health implements server.Dispatcher.
func (c *Coordinator) Health() *server.ClusterHealth {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := &server.ClusterHealth{
		Workers:    len(c.workers),
		Pending:    len(c.pending),
		Dispatched: c.dispatched,
		Failovers:  c.failovers,
		Adoptions:  c.adoptions,
	}
	for _, w := range c.workers {
		h.Capacity += w.capacity
		h.Leased += len(w.leased)
	}
	return h
}

// EngineWorkers implements server.Dispatcher.
func (c *Coordinator) EngineWorkers() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]int{}
	for _, w := range c.workers {
		for _, name := range w.engines {
			out[name]++
		}
	}
	return out
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	// Unknown fields are a protocol mismatch (version skew, a mis-fielded
	// terminal flag) and must fail loudly with a 400 — matching the job
	// API's submit decoder — rather than be silently dropped, which would
	// e.g. turn a Done report into a plain progress report and burn the
	// job's failure budget on lease expiries.
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		server.WriteError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// checkVersion rejects a worker speaking a different wire protocol
// revision with a typed error naming both versions — the handshake that
// turns DisallowUnknownFields decode drift into an actionable failure.
// Applied to register, lease, and report (the mutating endpoints).
func (c *Coordinator) checkVersion(w http.ResponseWriter, workerVersion int) bool {
	if workerVersion == ProtocolVersion {
		return true
	}
	perr := &ProtocolError{Worker: workerVersion, Coordinator: ProtocolVersion}
	c.log.Warn("worker rejected: protocol mismatch",
		"worker_version", workerVersion, "coordinator_version", ProtocolVersion)
	server.WriteError(w, http.StatusBadRequest, server.ErrCodeProtocolMismatch, "%v", perr)
	return false
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !c.checkVersion(w, req.ProtocolVersion) {
		return
	}
	if req.Capacity < 1 {
		req.Capacity = 1
	}
	c.mu.Lock()
	c.seq++
	id := fmt.Sprintf("worker-%d", c.seq)
	ws := &workerState{
		id:       id,
		name:     req.Name,
		capacity: req.Capacity,
		engines:  req.Engines,
		lastSeen: time.Now(),
		leased:   map[string]*task{},
	}
	c.workers[id] = ws
	adoptions := c.adoptHeldLocked(ws, req.HeldLeases)
	c.broadcastLocked()
	c.mu.Unlock()
	c.log.Info("worker registered",
		"worker", req.Name, "worker_id", id,
		"capacity", req.Capacity, "engines", strings.Join(req.Engines, ","),
		"held_leases", len(req.HeldLeases))
	server.WriteJSON(w, http.StatusOK, RegisterResponse{
		WorkerID:         id,
		LeaseTTLMS:       c.cfg.LeaseTTL.Milliseconds(),
		ReportIntervalMS: c.cfg.ReportInterval.Milliseconds(),
		Adoptions:        adoptions,
	})
}

// adoptHeldLocked answers a re-registering worker's held leases. A lease
// is adopted when its token matches a live adopting task (the job's
// re-dispatch arrived first), a parked recovered lease (the worker
// arrived first — it binds here and the re-dispatch completes the
// adoption), or a task already leased under that token (an earlier
// registration adopted it, but its answer never reached the worker, which
// registered again: the lease moves to the fresh identity). Anything else
// is abandoned with the reason, and the worker cancels that solve.
func (c *Coordinator) adoptHeldLocked(ws *workerState, held []HeldLease) []LeaseAdoption {
	if len(held) == 0 {
		return nil
	}
	out := make([]LeaseAdoption, 0, len(held))
	for _, h := range held {
		a := LeaseAdoption{JobID: h.JobID}
		t := c.tasks[h.JobID]
		p := c.parked[h.JobID]
		switch {
		case t != nil && t.adopting && h.Token != "" && t.token == h.Token:
			c.adoptLocked(t, ws)
			a.Adopted = true
		case t != nil && !t.adopting && t.worker != "" && h.Token != "" && t.token == h.Token:
			c.rebindLocked(t, ws)
			a.Adopted = true
		case p != nil && h.Token != "" && p.rec.Token == h.Token:
			p.workerID = ws.id
			p.workerName = ws.name
			a.Adopted = true
			c.log.Info("parked lease bound to re-registered worker",
				"job", h.JobID, "trace_id", p.rec.TraceID,
				"worker", ws.name, "worker_id", ws.id)
		case (t != nil && t.adopting) || p != nil:
			a.Reason = "lease token mismatch"
		default:
			a.Reason = "no adoptable lease for this job (resolved, re-queued, or past the grace window)"
		}
		if !a.Adopted {
			traceID := ""
			switch {
			case t != nil:
				traceID = t.job.TraceID
			case p != nil:
				traceID = p.rec.TraceID
			}
			c.log.Warn("held lease abandoned", "job", h.JobID, "trace_id", traceID,
				"worker", ws.name, "worker_id", ws.id, "reason", a.Reason)
		}
		out = append(out, a)
	}
	return out
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.mu.Lock()
	ws := c.workers[req.WorkerID]
	if ws != nil {
		ws.lastSeen = time.Now()
	}
	c.mu.Unlock()
	if ws == nil {
		server.WriteError(w, http.StatusNotFound, server.ErrCodeUnknownWorker, "unknown worker %q (re-register)", req.WorkerID)
		return
	}
	server.WriteJSON(w, http.StatusOK, struct{}{})
}

// handleLeave deregisters a worker that drained gracefully, so its idle
// slots stop holding queued jobs back from the local slots until reap. A
// lease it still holds is re-queued without charging the retry budget,
// like an abandon report.
func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req LeaveRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.mu.Lock()
	ws := c.workers[req.WorkerID]
	if ws != nil {
		delete(c.workers, req.WorkerID)
		for _, t := range ws.leased {
			c.requeueLocked(t, fmt.Sprintf("worker %s (%s) left", ws.name, ws.id), false)
		}
		c.broadcastLocked()
	}
	c.mu.Unlock()
	if ws == nil {
		server.WriteError(w, http.StatusNotFound, server.ErrCodeUnknownWorker, "unknown worker %q", req.WorkerID)
		return
	}
	c.log.Info("worker left", "worker", ws.name, "worker_id", ws.id)
	server.WriteJSON(w, http.StatusOK, struct{}{})
}

// handleLease long-polls for the next runnable job. 200 with a null job
// means the poll timed out empty; 404 tells a forgotten worker to
// re-register.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !c.checkVersion(w, req.ProtocolVersion) {
		return
	}
	wait := c.cfg.PollWait
	if req.WaitMS > 0 && time.Duration(req.WaitMS)*time.Millisecond < wait {
		wait = time.Duration(req.WaitMS) * time.Millisecond
	}
	deadline := time.Now().Add(wait)
	for {
		// Minted before the lock: the grant must not read system randomness
		// while holding the lease table. An ungranted token is discarded.
		token := newLeaseToken()
		c.mu.Lock()
		ws := c.workers[req.WorkerID]
		if ws == nil {
			c.mu.Unlock()
			server.WriteError(w, http.StatusNotFound, server.ErrCodeUnknownWorker, "unknown worker %q (re-register)", req.WorkerID)
			return
		}
		ws.lastSeen = time.Now()
		if lease, t, started := c.grantLocked(ws, token); lease != nil {
			c.mu.Unlock()
			if started != nil {
				started()
			}
			// The instance is encoded here, outside the lock: a grant must
			// not hold the lease table through a graph-sized marshal, and a
			// job a local slot solves is never encoded for a lease. The
			// encoding is the instance's own, made once (at admission, by
			// the file-backed store) and shared by every lease of it. A
			// validated instance cannot fail to encode; if one does, that
			// is this job's failure, not a queue wedge.
			var err error
			if lease.Graph, lease.System, err = t.job.Encode(); err != nil {
				c.mu.Lock()
				c.resolveLocked(t, outcome{errMessage: "cluster: encode instance: " + err.Error()})
				c.mu.Unlock()
				lease = nil
			}
			server.WriteJSON(w, http.StatusOK, LeaseResponse{Job: lease})
			return
		}
		wakeCh := c.wake
		c.mu.Unlock()
		remaining := time.Until(deadline)
		if remaining <= 0 {
			server.WriteJSON(w, http.StatusOK, LeaseResponse{Job: nil})
			return
		}
		timer := time.NewTimer(remaining)
		select {
		case <-wakeCh:
		case <-timer.C:
		case <-r.Context().Done():
		case <-c.closed:
		}
		timer.Stop()
		select {
		case <-r.Context().Done():
			return
		case <-c.closed:
			server.WriteJSON(w, http.StatusOK, LeaseResponse{Job: nil})
			return
		default:
		}
	}
}

// grantLocked pops the first pending task this worker may run and leases
// it under the caller-minted token. It returns the lease without its
// instance (the caller fills that in outside the lock), the task, and the
// job's Started callback (startLocked).
func (c *Coordinator) grantLocked(ws *workerState, token string) (*LeasedJob, *task, func()) {
	if len(ws.leased) >= ws.capacity {
		return nil, nil, nil
	}
	for i := 0; i < len(c.pending); {
		t := c.pending[i]
		if t.ctx.Err() != nil {
			// A lazily-discovered cancellation: resolveLocked removes the
			// task from c.pending, so the scan continues at the same index.
			c.resolveLocked(t, outcome{})
			continue
		}
		if t.excluded[ws.id] {
			i++
			continue
		}
		c.pending = append(c.pending[:i], c.pending[i+1:]...)
		t.worker = ws.id
		t.workerName = ws.name
		t.leaseStart = time.Now()
		t.leaseExpiry = t.leaseStart.Add(c.cfg.LeaseTTL)
		t.attempts++
		t.token = token
		ws.leased[t.job.ID] = t
		c.dispatched++
		c.putLeaseLocked(t)
		c.log.Info("lease granted",
			"job", t.job.ID, "trace_id", t.job.TraceID,
			"worker", ws.name, "worker_id", ws.id, "attempt", t.attempts)
		if len(c.pending) > 0 {
			// The worker's slot is spoken for: a job queued behind this one
			// may now be local work.
			c.broadcastLocked()
		}
		lease := &LeasedJob{
			ID:      t.job.ID,
			Attempt: t.attempts,
			Engines: t.job.Engines,
			Config:  t.job.Config,
			TraceID: t.job.TraceID,
			Token:   t.token,
		}
		return lease, t, t.startLocked()
	}
	return nil, nil, nil
}

// handleReport ingests a worker's progress or terminal report. 404 means
// the worker itself is unknown; 410 means the lease is gone (job resolved,
// cancelled, or re-queued elsewhere) and the worker must drop the job
// without further reports.
func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req ReportRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !c.checkVersion(w, req.ProtocolVersion) {
		return
	}
	c.mu.Lock()
	ws := c.workers[req.WorkerID]
	if ws == nil {
		c.mu.Unlock()
		server.WriteError(w, http.StatusNotFound, server.ErrCodeUnknownWorker, "unknown worker %q (re-register)", req.WorkerID)
		return
	}
	ws.lastSeen = time.Now()
	t := c.tasks[id]
	if t == nil || t.worker != req.WorkerID {
		// An adopted-at-registration worker can start reporting before the
		// job's own re-dispatch reaches the coordinator: buffer the report
		// on the parked lease (latest wins, but a terminal report is never
		// displaced by a progress one) and apply it when the task arrives.
		if p := c.parked[id]; t == nil && p != nil && p.workerID == req.WorkerID {
			if req.Done || req.Abandon || p.report == nil || !(p.report.Done || p.report.Abandon) {
				p.report = &req
			}
			c.mu.Unlock()
			server.WriteJSON(w, http.StatusOK, ReportResponse{Cancel: false})
			return
		}
		c.mu.Unlock()
		server.WriteJobError(w, http.StatusGone, server.ErrCodeLeaseGone, id, "no lease on job %q held by worker %q", id, req.WorkerID)
		return
	}
	cancel := t.ctx.Err() != nil
	c.ingestReportLocked(t, ws, &req)
	c.mu.Unlock()
	server.WriteJSON(w, http.StatusOK, ReportResponse{Cancel: cancel})
}

// ingestReportLocked folds one report from the task's lease holder into
// the job: lease extension, progress counters, trace spans, and the
// terminal transitions. Shared by handleReport and the parked-report
// replay in resumeLocked.
func (c *Coordinator) ingestReportLocked(t *task, ws *workerState, req *ReportRequest) {
	t.leaseExpiry = time.Now().Add(c.cfg.LeaseTTL)
	t.last = req.ProgressSnapshot
	// The progress fold happens under the mutex, atomically with the
	// lease-holder check in the caller: a stale report racing a failover
	// must not rewind the counters after the survivor reported larger
	// totals. Gauges are instantaneous, not cumulative: the current
	// attempt's view simply overwrites the job's.
	t.job.Progress.Record(t.last.AddCounters(t.base))
	// Worker-side spans arrive on terminal reports; fold them into the
	// job's trace so the remote attempt's timeline reads alongside the
	// coordinator's own lease spans.
	if t.job.Trace != nil {
		for _, sp := range req.Spans {
			t.job.Trace.Record(sp)
		}
	}
	switch {
	case req.Abandon:
		// Abandon hands back exactly this job (docs/API.md): it re-queues
		// without charging the failure budget, and the handing-back worker
		// is excluded from it — so a sole draining worker's job goes to a
		// local slot immediately instead of bouncing back to it, while the
		// worker's other leases run on untouched.
		c.requeueLocked(t, fmt.Sprintf("worker %s (%s) handed the job back", ws.name, ws.id), false)
	case req.Done:
		ws.jobsDone++
		leaseOutcome := "done"
		if req.Error != "" {
			leaseOutcome = "error"
		}
		t.leaseSpanLocked(leaseOutcome)
		c.resolveLocked(t, outcome{res: req.Result, errMessage: req.Error})
	}
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	c.mu.Lock()
	out := WorkerList{Workers: []WorkerInfo{}}
	for _, ws := range c.workers {
		out.Workers = append(out.Workers, WorkerInfo{
			ID:         ws.id,
			Name:       ws.name,
			Capacity:   ws.capacity,
			Leased:     len(ws.leased),
			JobsDone:   ws.jobsDone,
			Engines:    ws.engines,
			LastSeenMS: now.Sub(ws.lastSeen).Milliseconds(),
		})
	}
	c.mu.Unlock()
	sort.Slice(out.Workers, func(i, k int) bool { return out.Workers[i].ID < out.Workers[k].ID })
	server.WriteJSON(w, http.StatusOK, out)
}

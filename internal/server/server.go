// Package server turns the solver pool into a long-running network
// service: an HTTP/JSON API that accepts solve jobs (task graph +
// processor system + engine or portfolio choice + budget), runs them
// asynchronously on a solverpool.Pool, and serves status, live progress,
// and finished schedules.
//
// The job lifecycle is queued → running → {done | failed | cancelled}.
// Submission returns a job ID immediately; the solve itself waits for one
// of the pool's worker slots, runs under a per-job context, and lands in a
// bounded in-memory store that retains terminal jobs for a TTL (sweep on
// access) and evicts the oldest terminal job when full. Cancelling a job —
// or shutting the server down — fires the job contexts, and because every
// registry engine polls its budget once per expansion, workers come back
// within one expansion. A repeated submission is admitted from a memo of
// its exact instance bytes (admit.go), answered from the content-addressed
// schedule cache when an identical question was solved before, and
// otherwise still hits the pool's model memoization.
//
// Endpoints (see docs/API.md for request/response examples):
//
//	POST   /v1/jobs             submit a job
//	GET    /v1/jobs             list retained jobs
//	GET    /v1/jobs/{id}        job status + live progress
//	GET    /v1/jobs/{id}/result finished schedule (JSON, or ?format=gantt)
//	GET    /v1/jobs/{id}/events NDJSON status stream until terminal
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/engines          the engine registry (+ cluster view)
//	GET    /v1/healthz          liveness + pool counters (+ cluster view)
//	       /v1/workers...       cluster protocol, mounted by EnableCluster
//
// cmd/icpp98d wraps this package as a daemon; `icpp98 client` is the
// command-line client. EnableCluster attaches an internal/cluster
// coordinator (via the Dispatcher/ClusterBackend interfaces defined here):
// its pending queue becomes the daemon's only job queue, drained by remote
// icpp98worker processes over HTTP and by the daemon's own pool slots
// through direct calls, remote first.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/procgraph"
	"repro/internal/solverpool"
	"repro/internal/taskgraph"
)

// Config sizes a Server. The zero value is usable: GOMAXPROCS workers, a
// 1024-job store, 15-minute retention, a 64 MiB schedule cache.
type Config struct {
	// Workers bounds concurrently running jobs; < 1 selects GOMAXPROCS.
	Workers int
	// StoreCap bounds retained jobs (active + terminal); < 1 selects 1024.
	StoreCap int
	// TTL is how long terminal jobs stay fetchable; <= 0 selects 15m.
	TTL time.Duration
	// StoreDir, when set, selects the file-backed job store: every job
	// mutation is appended to a WAL under this directory (compacted into a
	// snapshot periodically), and a restarted server recovers the retained
	// jobs — terminal results stay fetchable, interrupted jobs read failed.
	// Empty keeps the in-memory store. See persist.go / DESIGN.md §10.
	StoreDir string
	// CacheBytes bounds the content-addressed schedule cache: identical
	// submissions (same instance digest, engine selection, and budget) are
	// answered from the memoized result without a solve. 0 selects 64 MiB;
	// negative disables the cache.
	CacheBytes int64
	// StreamInterval is the /events snapshot cadence; <= 0 selects 250ms.
	StreamInterval time.Duration
	// BacklogPerSlot, when > 0, turns submissions away with 503 once the
	// active (queued + running) job count reaches BacklogPerSlot times the
	// aggregate solve capacity — the local pool's workers plus every live
	// cluster worker's slots. The bound therefore scales out as workers
	// join and contracts as they die. 0 keeps only the store-capacity
	// backpressure of the non-clustered daemon.
	BacklogPerSlot int
	// SampleInterval is the search-telemetry sampling cadence; <= 0
	// selects obs.DefaultSampleInterval (250ms). The sampler reads the
	// job's atomic progress counters from outside the search, so shorter
	// intervals buy resolution, never solve overhead.
	SampleInterval time.Duration
	// Logger receives the daemon's structured log records, each stamped
	// with the job's trace_id; nil discards them (tests, embedding).
	Logger *slog.Logger
	// SlowJob, when > 0, logs a warning with the job's final telemetry
	// summary for every job whose end-to-end latency meets the threshold.
	SlowJob time.Duration
}

// DispatchJob is the server-side view of a job a Dispatcher runs: the
// decoded instance, the submitter's wire budget, and the two hooks that
// feed the job's observable lifecycle (Started fires markRunning when a
// remote worker or a local slot picks the job up; Progress is the job's
// live progress, into which the coordinator folds a remote worker's
// reported counters and gauges, and which a local solve feeds directly).
type DispatchJob struct {
	ID      string
	Graph   *taskgraph.Graph
	System  *procgraph.System
	Engines []string
	Config  JobConfig
	// Encode returns the instance's canonical JSON for a cluster lease. It
	// marshals once per instance and keeps the bytes, which the
	// file-backed store already made at admission for its WAL, so every
	// lease of the instance ships the same bytes without a marshal. Set on
	// every job the server dispatches; a local solve never calls it.
	Encode   func() (graph, system json.RawMessage, err error)
	Started  func()
	Progress *core.Progress
	// TraceID travels with the lease so the remote worker's log records
	// and spans correlate with the coordinator's trace.
	TraceID string
	// Trace, when non-nil, receives the lifecycle spans the coordinator
	// observes (lease grants, failovers), the spans remote workers report
	// back, and a local slot's solve span.
	Trace *obs.Recorder
	// Resume, when non-nil, marks this dispatch as the re-offer of a job
	// recovered after a restart with a live lease record: the coordinator
	// holds the lease open for its worker to re-adopt within the grace
	// window instead of granting a fresh lease, and a worker that never
	// returns re-queues the job without charging its retry budget.
	Resume *LeaseRecord
}

// LocalSolve solves one job on the daemon's own pool. EnableCluster hands
// it to the cluster backend, whose local slots call it directly.
type LocalSolve func(ctx context.Context, job DispatchJob) (res *JobResult, errMessage string)

// Dispatcher is the cluster hook: internal/cluster's coordinator
// implements it, and a clustered server hands it every job that misses
// the schedule cache. Defined here (not in internal/cluster) so the
// dependency points downward: cluster imports server for the wire types,
// never the reverse.
type Dispatcher interface {
	// Dispatch queues the job and blocks until it is resolved — solved by
	// a remote worker or a local slot, failed, or cancelled (a nil result
	// with an empty message).
	Dispatch(ctx context.Context, job DispatchJob) (res *JobResult, errMessage string)
	// Capacity is the live remote slot count, aggregated into the backlog
	// backpressure check and /v1/healthz.
	Capacity() int
	// Health snapshots the coordinator for /v1/healthz.
	Health() *ClusterHealth
	// EngineWorkers counts live workers per advertised engine name for
	// the /v1/engines cluster view.
	EngineWorkers() map[string]int
}

// ClusterBackend is what EnableCluster mounts: a Dispatcher plus the
// HTTP handler serving the /v1/workers endpoints (registration, leasing,
// reporting, listing), and the hook that starts its local slots.
type ClusterBackend interface {
	Dispatcher
	Handler() http.Handler
	// ServeLocal starts slots in-process consumers of the dispatch queue,
	// each solving the jobs it takes with solve.
	ServeLocal(slots int, solve LocalSolve)
}

// Server is the solve daemon: an http.Handler plus the job runner behind
// it. Construct with New, serve it, then Close to cancel every job and
// wait for the workers to drain.
type Server struct {
	pool       *solverpool.Pool
	store      JobStore
	admission  *admissionMemo
	cache      *solverpool.ResultCache[JobResult] // nil when disabled
	metrics    *metrics
	mux        *http.ServeMux
	sem        chan struct{}
	interval   time.Duration
	sample     time.Duration
	backlog    int
	dispatcher Dispatcher // nil without a cluster
	log        *slog.Logger
	slowJob    time.Duration

	baseCtx    context.Context
	baseCancel context.CancelFunc
	closeMu    sync.Mutex // serializes Close against job admission
	wg         sync.WaitGroup
}

// New builds a Server and its solver pool with the in-memory job store.
// It panics on a store error, which only the file-backed store (StoreDir)
// can produce — durable callers use Open and handle the error.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open builds a Server and its solver pool. With Config.StoreDir set the
// job store is file-backed and the previous run's jobs are recovered
// before the first request is served; opening the store is the only error
// path.
func Open(cfg Config) (*Server, error) {
	if cfg.StoreCap < 1 {
		cfg.StoreCap = 1024
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 15 * time.Minute
	}
	if cfg.StreamInterval <= 0 {
		cfg.StreamInterval = 250 * time.Millisecond
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	cache := solverpool.NewResultCache[JobResult](cfg.CacheBytes)
	var store JobStore
	if cfg.StoreDir != "" {
		fs, err := openFileStore(cfg.StoreDir, cfg.StoreCap, cfg.TTL, cache)
		if err != nil {
			return nil, fmt.Errorf("server: opening job store in %s: %w", cfg.StoreDir, err)
		}
		store = fs
	} else {
		store = newStore(cfg.StoreCap, cfg.TTL, cache)
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = obs.DefaultSampleInterval
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	pool := solverpool.New(cfg.Workers)
	s := &Server{
		pool:      pool,
		store:     store,
		admission: newAdmissionMemo(),
		cache:     cache,
		metrics:   newMetrics(),
		sem:       make(chan struct{}, pool.Workers()),
		interval:  cfg.StreamInterval,
		sample:    cfg.SampleInterval,
		backlog:   cfg.BacklogPerSlot,
		log:       cfg.Logger,
		slowJob:   cfg.SlowJob,
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/engines", s.handleEngines)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// EnableCluster attaches a cluster backend: every job that misses the
// schedule cache goes to its queue, which remote workers and the daemon's
// own pool slots drain, its capacity joins the backlog backpressure check,
// and its /v1/workers endpoints are mounted on the server's mux. Call
// before serving traffic — the dispatch field is read without a lock on
// every job.
func (s *Server) EnableCluster(b ClusterBackend) {
	s.dispatcher = b
	b.ServeLocal(s.pool.Workers(), s.solve)
	s.mux.Handle("/v1/workers", b.Handler())
	s.mux.Handle("/v1/workers/", b.Handler())
}

// ResumeRecovered re-dispatches the jobs a file-backed store brought back
// live — non-terminal jobs whose lease record says a cluster worker may
// still be solving them. Call it after EnableCluster and before serving
// traffic: with a cluster attached, each job is re-offered to the
// coordinator carrying its recovered lease so the worker can re-adopt it;
// without one (or when the job's lease is missing) the job is honestly
// failed as interrupted, exactly as a leaseless restart would have. It
// returns how many jobs were re-dispatched.
func (s *Server) ResumeRecovered() int {
	jobs := s.store.recovered()
	ls := s.LeaseStore()
	n := 0
	for _, j := range jobs {
		var lease *LeaseRecord
		if ls != nil {
			for _, lr := range ls.RecoveredLeases() {
				if lr.JobID == j.id {
					cp := lr
					lease = &cp
					break
				}
			}
		}
		if s.dispatcher == nil || lease == nil {
			if ls != nil {
				ls.DropLease(j.id)
			}
			traceID := ""
			if j.trace != nil {
				traceID = j.trace.TraceID()
			}
			s.log.Warn("recovered job not resumable",
				"job", j.id, "trace_id", traceID, "state", j.state, "cluster", s.dispatcher != nil)
			s.store.finish(j, nil, fmt.Sprintf("interrupted: daemon restarted while the job was %s", j.state), nil)
			continue
		}
		if j.trace == nil {
			// A record persisted before traces were spilled: the lease still
			// knows the trace ID, so the resumed half of the timeline records.
			j.trace = obs.NewRecorder(lease.TraceID)
		}
		jobCtx, cancel := context.WithCancel(s.baseCtx)
		j.cancel = cancel
		s.closeMu.Lock()
		if s.baseCtx.Err() != nil {
			s.closeMu.Unlock()
			cancel()
			s.store.finish(j, nil, fmt.Sprintf("interrupted: daemon restarted while the job was %s", j.state), nil)
			continue
		}
		s.wg.Add(1)
		s.closeMu.Unlock()
		n++
		s.log.Info("resuming recovered job",
			"job", j.id, "trace_id", lease.TraceID,
			"worker_id", lease.WorkerID, "attempt", lease.Attempt)
		go s.run(jobCtx, j, lease)
	}
	return n
}

// capacity is the aggregate solve-slot count: the local pool plus every
// live cluster worker.
func (s *Server) capacity() int {
	n := s.pool.Workers()
	if s.dispatcher != nil {
		n += s.dispatcher.Capacity()
	}
	return n
}

// Close cancels every queued and running job and blocks until the job
// goroutines have drained — the engines poll their budgets once per
// expansion, so this returns promptly even mid-search. A file-backed
// store is compacted and released last, after every job has recorded its
// terminal state.
func (s *Server) Close() {
	s.closeMu.Lock()
	s.baseCancel()
	s.closeMu.Unlock()
	s.wg.Wait()
	s.store.close()
}

// WriteJSON writes v as a compact JSON body with the given status. A
// json.RawMessage inside v (a memoized result, a lease's admission bytes)
// is copied as it is, never re-indented.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteError writes the unified error envelope: an HTTP status, a stable
// machine-readable code from the Err* catalog (api.go), and a formatted
// human-readable message.
func WriteError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	WriteJSON(w, status, ErrorResponse{Code: code, Message: fmt.Sprintf(format, args...)})
}

// WriteJobError is WriteError with the envelope's job_id field set — for
// errors scoped to one job.
func WriteJobError(w http.ResponseWriter, status int, code, jobID string, format string, args ...any) {
	WriteJSON(w, status, ErrorResponse{Code: code, Message: fmt.Sprintf(format, args...), JobID: jobID})
}

// handleSubmit decodes, validates, and enqueues a job. Everything wrong
// with the request itself — malformed JSON, an invalid instance, an
// unknown engine — is a 400 here; a job that exists always has a
// well-formed instance.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	admitStart := time.Now()
	select {
	case <-s.baseCtx.Done():
		WriteError(w, http.StatusServiceUnavailable, ErrCodeShuttingDown, "server is shutting down")
		return
	default:
	}
	var req SubmitRequest
	// The store bounds retained jobs; bound the request too, or one
	// oversized POST defeats the whole memory story. 16 MiB comfortably
	// fits any MaxNodes-sized instance in every wire form.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad request body: %v", err)
		return
	}
	inst, err := s.admission.admit(&req)
	if err != nil {
		WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad instance: %v", err)
		return
	}
	names, err := engineNames(&req)
	if err != nil {
		WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}
	if err := req.Config.Validate(); err != nil {
		WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad config: %v", err)
		return
	}
	if req.Cache != "" && req.Cache != CacheBypass {
		WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad cache mode %q (want %q or empty)", req.Cache, CacheBypass)
		return
	}
	// The backlog check is the cluster-aware backpressure: the cap scales
	// with the live aggregate capacity, so a fleet losing workers starts
	// refusing load before the store fills with jobs nobody can run.
	if s.backlog > 0 {
		if active, cap := s.store.active(), s.capacity(); active >= s.backlog*cap {
			WriteError(w, http.StatusServiceUnavailable, ErrCodeBacklogFull,
				"backlog full: %d active jobs ≥ %d per slot × %d slots", active, s.backlog, cap)
			return
		}
	}

	jobCtx, cancel := context.WithCancel(s.baseCtx)
	j := &job{
		inst:     inst,
		engines:  names,
		config:   req.Config,
		cancel:   cancel,
		progress: &core.Progress{},
		trace:    obs.NewRecorder(obs.NewTraceID()),
	}
	if s.cache != nil {
		// The key is computed at admission — the instance digest pair plus
		// the configuration digest — whether or not this submission
		// consults the cache: a bypassed solve still refreshes the memo.
		j.cacheKey = cacheKey(inst, names, req.Config)
		j.cacheOK = true
		j.cacheBypass = req.Cache == CacheBypass
		if j.cacheBypass {
			s.cache.NoteBypass()
		}
	}
	id, err := s.store.add(j)
	if err != nil {
		cancel()
		WriteError(w, http.StatusServiceUnavailable, ErrCodeStoreFull, "%v", err)
		return
	}
	s.metrics.submitted.Add(1)
	if req.Cache == CacheBypass {
		s.store.noteCache(j, CacheBypass)
	}
	// Admission spans decode + validation + store entry; the queue span
	// picks up from here (markRunning closes it against j.created).
	j.trace.RecordTimed("admit", obs.OriginDaemon, admitStart, time.Now(),
		"engines", engineKey(names))
	s.log.Info("job admitted",
		"job", id, "trace_id", j.trace.TraceID(),
		"engines", engineKey(names), "cache", j.cacheNote)

	// Admission and Close are serialized so the WaitGroup never grows
	// after Close started waiting; a submit that loses the race is turned
	// away like any other post-shutdown request.
	s.closeMu.Lock()
	if s.baseCtx.Err() != nil {
		s.closeMu.Unlock()
		cancel()
		// The submitter is told 503, so the job must leave no record.
		s.store.remove(id)
		WriteError(w, http.StatusServiceUnavailable, ErrCodeShuttingDown, "server is shutting down")
		return
	}
	s.wg.Add(1)
	s.closeMu.Unlock()
	go s.run(jobCtx, j, nil)

	WriteJSON(w, http.StatusAccepted, SubmitResponse{ID: id, State: StateQueued})
}

// cacheFill is a done result as the schedule cache memoizes it: the
// terminal JobResult with its job ID cleared, charged its encoded size
// against the cache's byte budget.
type cacheFill struct {
	result JobResult
	size   int64
}

// finishJob records a job's outcome. An interrupted context means job
// cancellation or server shutdown (budgets cut searches off internally,
// without touching the context), so the terminal state must read
// cancelled either way — even when the interrupted engine still handed
// back an incumbent schedule, which is kept. A completed solve also
// feeds the lifetime metrics and the schedule cache: the memoized copy
// has its job ID cleared, since the cache is keyed by content, not by
// which job computed it; the store fills it before the terminal state is
// visible (memStore.finish).
func (s *Server) finishJob(ctx context.Context, j *job, res *JobResult, errMessage string) {
	if ctx.Err() != nil {
		s.store.noteInterrupted(j)
	} else if res == nil && errMessage == "" {
		// Only an interrupted job may end without a result: a solve (local
		// or a remote worker's report) that hands back neither a schedule
		// nor an error must not read done.
		errMessage = "solve ended without a result"
	}
	// The cache fill is built here, outside the store lock, as the done
	// result it becomes, and charged its encoded size; the store keeps it
	// only if the job settles done, and a result that fails to marshal is
	// simply not cached. An answer served from the cache is already there.
	// (The run goroutine wrote cacheNote itself, so this read needs no
	// lock.)
	var fill *cacheFill
	if res != nil && errMessage == "" && s.cache != nil && j.cacheOK && j.cacheNote != "hit" {
		fill = &cacheFill{result: *res}
		fill.result.ID = ""
		fill.result.State = StateDone
		if data, err := json.Marshal(fill.result); err == nil {
			fill.size = int64(len(data))
		} else {
			fill = nil
		}
	}
	final := s.store.finish(j, res, errMessage, fill)
	if final == "" {
		return // a racing finisher already recorded the outcome
	}
	s.metrics.recordFinish(final, j)
	// Quiesce the sampler before the closing log reads the ring, so a job
	// faster than one sample interval still reports its final counters.
	if stop := j.stopSampler.Load(); stop != nil {
		(*stop)()
	}
	s.logFinish(j, final, errMessage)
}

// logFinish emits the job's closing log record, escalating to a warning
// with the final telemetry summary when the end-to-end latency crosses
// the slow-job threshold. The lifecycle fields are stable once finish
// returned a terminal state, so the reads need no lock.
func (s *Server) logFinish(j *job, final, errMessage string) {
	e2e := j.finished.Sub(j.created)
	traceID := ""
	if j.trace != nil {
		traceID = j.trace.TraceID()
	}
	attrs := []any{
		"job", j.id, "trace_id", traceID, "state", final,
		"engines", engineKey(j.engines), "e2e_ms", e2e.Milliseconds(),
	}
	if !j.started.IsZero() {
		attrs = append(attrs, "queue_ms", j.started.Sub(j.created).Milliseconds(),
			"solve_ms", j.finished.Sub(j.started).Milliseconds())
	}
	if j.cacheNote != "" {
		attrs = append(attrs, "cache", j.cacheNote)
	}
	if errMessage != "" {
		attrs = append(attrs, "error", errMessage)
	}
	if s.slowJob > 0 && e2e >= s.slowJob {
		if ring := j.ring.Load(); ring != nil {
			attrs = append(attrs, "telemetry", ring.Summary())
		}
		s.log.Warn("slow job", attrs...)
		return
	}
	s.log.Info("job finished", attrs...)
}

// run is the job's lifecycle goroutine: answer from the schedule cache
// when it can, else hand the job to the cluster's queue when one is
// attached (the coordinator places it on a remote worker or a local slot),
// else wait for a local slot and solve on the pool. lease, when non-nil,
// is the recovered lease of a job resumed after a restart: the job is past
// the cache lookup, and the lease rides the dispatch so the coordinator
// re-adopts instead of re-leasing. Cancellation while queued never touches
// the pool.
func (s *Server) run(ctx context.Context, j *job, lease *LeaseRecord) {
	defer s.wg.Done()
	defer j.cancel()
	// The schedule cache answers first: an identical prior submission's
	// result is returned without touching the cluster or the pool. The
	// memoized value is the finished job's wire result with the ID
	// cleared; the hit is a shallow copy carrying this job's ID, whose
	// schedule, stats and maps stay shared with the entry and are never
	// written. The cache confirms the entry answered this very instance,
	// not just its digests. The job still transitions queued → running →
	// done (markRunning also honors a cancel that beat us here), with zero
	// progress counters — the observable proof that no search ran.
	if lease == nil && j.cacheOK && !j.cacheBypass {
		lookup := j.trace.Start("cache", obs.OriginDaemon)
		if res, ok := s.cache.Get(j.cacheKey, j.inst.graph, j.inst.system); ok {
			lookup.End("outcome", "hit")
			res.ID = j.id
			if s.store.markRunning(j) {
				s.store.noteCache(j, "hit")
				s.finishJob(ctx, j, &res, "")
			} else {
				s.finishJob(ctx, j, nil, "")
			}
			return
		}
		lookup.End("outcome", "miss")
	}
	// From here a real search runs (locally or on the cluster): install the
	// telemetry ring and sample the job's progress counters until the job
	// resolves. A cache hit returned above, so its trace keeps the cache
	// span and no solve spans or samples — the proof no search ran.
	ring := obs.NewRing(0)
	j.ring.Store(ring)
	stopSampler := obs.StartSampler(ctx, j.progress, s.sample, ring)
	j.stopSampler.Store(&stopSampler)
	defer stopSampler()
	job := DispatchJob{
		ID:       j.id,
		Graph:    j.inst.graph,
		System:   j.inst.system,
		Engines:  j.engines,
		Config:   j.config,
		Encode:   j.inst.encode,
		Started:  func() { s.store.markRunning(j) },
		Progress: j.progress,
		TraceID:  j.trace.TraceID(),
		Trace:    j.trace,
		Resume:   lease,
	}
	if d := s.dispatcher; d != nil {
		dispatch := j.trace.Start("dispatch", obs.OriginDaemon)
		res, errMessage := d.Dispatch(ctx, job)
		if lease != nil {
			dispatch.End("resume", "true")
		} else {
			dispatch.End()
		}
		s.finishJob(ctx, j, res, errMessage)
		return
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.finishJob(ctx, j, nil, "")
		return
	}
	defer func() { <-s.sem }()
	if !s.store.markRunning(j) {
		s.finishJob(ctx, j, nil, "")
		return
	}
	res, errMessage := s.solve(ctx, job)
	s.finishJob(ctx, j, res, errMessage)
}

// solve is the daemon's LocalSolve: the job on its own pool, with the
// solve span recorded as the daemon's. A plain daemon's semaphore slots
// and a clustered daemon's local slots both run it.
func (s *Server) solve(ctx context.Context, job DispatchJob) (*JobResult, string) {
	return Solve(ctx, s.pool, job, obs.OriginDaemon)
}

// lookup resolves the {id} path segment, writing the 404 itself when the
// job is unknown or already evicted.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	j := s.store.get(id)
	if j == nil {
		WriteJobError(w, http.StatusNotFound, ErrCodeUnknownJob, id, "unknown job %q", id)
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	WriteJSON(w, http.StatusOK, s.store.status(j))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	list := JobList{Jobs: []JobStatus{}}
	for _, j := range s.store.list() {
		list.Jobs = append(list.Jobs, s.store.status(j))
	}
	WriteJSON(w, http.StatusOK, list)
}

// handleResult serves the finished schedule. A job that is still queued or
// running is a 409 (poll status, or stream /events); a failed or
// result-less cancelled job is also a 409 carrying the failure message.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	res := s.store.resultOf(j)
	if res == nil {
		st := s.store.status(j)
		msg := fmt.Sprintf("job %s has no result (state %s)", st.ID, st.State)
		if st.Error != "" {
			msg += ": " + st.Error
		}
		WriteJobError(w, http.StatusConflict, ErrCodeNoResult, st.ID, "%s", msg)
		return
	}
	if r.URL.Query().Get("format") == "gantt" {
		sched, err := res.Schedule.ToSchedule(j.inst.graph, j.inst.system)
		if err != nil {
			WriteJobError(w, http.StatusInternalServerError, ErrCodeInternal, j.id, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "engine=%s length=%d optimal=%v\n\n", res.Engine, res.Length, res.Optimal)
		fmt.Fprint(w, sched.Table())
		fmt.Fprintln(w)
		fmt.Fprint(w, sched.Gantt(8))
		return
	}
	WriteJSON(w, http.StatusOK, res)
}

// handleEvents streams NDJSON JobStatus snapshots until the job reaches a
// terminal state (the final snapshot is always sent), the client goes
// away, or the server shuts down. Every snapshot carries a per-job
// sequence number drawn from the job store; a watcher that lost its
// connection reconnects with the last seen value in Last-Event-ID (or
// ?after=) and resumes with strictly larger ones — snapshots are
// cumulative, so nothing needs replaying, and the stream still always
// ends with a terminal snapshot.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	interval := s.interval
	if ms, err := strconv.Atoi(r.URL.Query().Get("interval_ms")); err == nil && ms > 0 {
		interval = time.Duration(ms) * time.Millisecond
	}
	// A reconnecting client may send its last seen seq as Last-Event-ID
	// (or ?after=); no server-side action is needed — the counter lives on
	// the job and bumps on every emission to any stream, so whatever this
	// connection emits is already strictly newer than anything previously
	// delivered. Crucially, client input never mutates the shared counter:
	// a bogus offset cannot poison other watchers of the same job.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		st := s.store.nextEvent(j)
		if enc.Encode(st) != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminal(st.State) {
			return
		}
		select {
		case <-ticker.C:
		case <-j.done:
			// Loop once more to emit the terminal snapshot.
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			return
		}
	}
}

// handleTrace serves the job's end-to-end trace: lifecycle spans (local
// and remote) ordered by start time plus the sampled search telemetry.
// ?format=ndjson streams typed lines — one "trace" header, then a "span"
// line per span and a "sample" line per telemetry sample — for tools
// that process traces incrementally.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if j.trace == nil {
		// Only jobs recovered from a store written before spans were
		// spilled into the durable record lack a recorder; current stores
		// reseed the trace at recovery (see persist.go).
		WriteJobError(w, http.StatusNotFound, ErrCodeNoTrace, j.id, "job %s has no trace (recovered from a previous run)", j.id)
		return
	}
	st := s.store.status(j)
	spans, dropped := j.trace.Snapshot()
	resp := TraceResponse{
		ID:           j.id,
		TraceID:      j.trace.TraceID(),
		State:        st.State,
		Spans:        spans,
		DroppedSpans: dropped,
	}
	if ring := j.ring.Load(); ring != nil {
		samples, total := ring.Snapshot()
		resp.Telemetry = &TelemetryPayload{Samples: samples, Total: total, Summary: ring.Summary()}
	}
	if r.URL.Query().Get("format") == "ndjson" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		enc.Encode(map[string]any{
			"type": "trace", "id": resp.ID, "trace_id": resp.TraceID,
			"state": resp.State, "dropped_spans": resp.DroppedSpans,
		})
		for _, sp := range resp.Spans {
			enc.Encode(struct {
				Type string `json:"type"`
				obs.Span
			}{"span", sp})
		}
		if resp.Telemetry != nil {
			for _, sm := range resp.Telemetry.Samples {
				enc.Encode(struct {
					Type string `json:"type"`
					obs.Sample
				}{"sample", sm})
			}
		}
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleCancel requests cancellation and reports the resulting status.
// Cancelling a terminal job is a no-op 200, matching the idempotency a
// retrying client needs; the handler does not wait for the solve to
// acknowledge — poll status or /events to observe the transition.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.store.requestCancel(j)
	WriteJSON(w, http.StatusOK, s.store.status(j))
}

func (s *Server) handleEngines(w http.ResponseWriter, r *http.Request) {
	var byEngine map[string]int
	if s.dispatcher != nil {
		byEngine = s.dispatcher.EngineWorkers()
	}
	out := []EngineInfo{}
	for _, e := range engine.All() {
		section, desc := engine.Describe(e)
		out = append(out, EngineInfo{
			Name: e.Name(), Section: section, Description: desc,
			ClusterWorkers: byEngine[e.Name()],
		})
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if errors.Is(s.baseCtx.Err(), context.Canceled) {
		status = "shutting-down"
	}
	ps := s.pool.Stats()
	active := s.store.active()
	h := Health{
		Status:   status,
		Workers:  s.pool.Workers(),
		InFlight: s.pool.InFlight(),
		// Jobs counts live work only: a store full of finished (or
		// recovered) results must not make the daemon look loaded.
		Jobs:         active,
		RetainedJobs: s.store.count(),
		ModelsBuilt:  ps.ModelsBuilt,
		ModelHits:    ps.ModelHits,
		ActiveJobs:   active,
		Capacity:     s.capacity(),
		Build:        buildInfo(),
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		h.Cache = &cs
	}
	if s.dispatcher != nil {
		h.Cluster = s.dispatcher.Health()
	}
	WriteJSON(w, http.StatusOK, h)
}

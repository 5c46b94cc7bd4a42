package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/procgraph"
	"repro/internal/server"
	"repro/internal/solverpool"
	"repro/internal/taskgraph"
)

// WorkerConfig configures a worker runtime.
type WorkerConfig struct {
	// Coordinator is the daemon's base URL, e.g. "http://host:8098".
	Coordinator string
	// Name labels the worker in listings; empty selects the hostname.
	Name string
	// Slots bounds concurrent solves; < 1 selects GOMAXPROCS.
	Slots int
	// Client is the HTTP client; nil selects http.DefaultClient.
	Client *http.Client
	// Logf receives operational messages; nil discards them.
	Logf func(format string, args ...any)
	// Logger receives the worker's structured log records — registration,
	// lease lifecycle, report failures — stamped with each job's trace_id.
	// nil discards them. Logf and Logger are independent sinks; production
	// binaries set Logger, tests often capture Logf.
	Logger *slog.Logger
}

// Worker pulls leased jobs from a coordinator and solves them on a local
// solverpool.Pool — the same pool type behind the daemon itself, so the
// pool's capacity introspection (Workers) is what the worker registers as
// its slot count, and repeated leases of one instance hit the pool's model
// memoization exactly like local jobs do.
//
// Run blocks until the context is cancelled, then drains gracefully: it
// cancels in-flight solves and hands their jobs back to the coordinator
// for re-leasing (Abandon). Kill, for tests and crash drills, stops
// everything silently — no abandon, no further heartbeats — which is what
// a power cut looks like to the coordinator.
type Worker struct {
	base   string
	name   string
	pool   *solverpool.Pool
	client *http.Client
	logf   func(string, ...any)
	log    *slog.Logger

	id          string
	reportEvery time.Duration
	held        map[string]*heldLease // live leases, by job ID

	killed     atomic.Bool
	cancel     context.CancelFunc
	mu         sync.Mutex // guards id, reportEvery, held, and cancel during re-registration/kill
	registerMu sync.Mutex // single-flights re-registration across the pullers
}

// heldLease tracks one live lease so a coordinator restart can be
// survived: every (re-)registration presents the held leases, and the
// coordinator answers adopt or abandon per lease. An adopted lease keeps
// solving — its reports simply move to the fresh worker identity; an
// abandoned one is cancelled on the spot, because the coordinator has
// already resolved or re-queued the job and the local attempt is waste.
type heldLease struct {
	jobID   string
	token   string
	attempt int
	traceID string
	cancel  context.CancelFunc

	mu       sync.Mutex
	workerID string // identity the lease currently reports under
	lost     bool   // the coordinator refused adoption
}

func (h *heldLease) currentWorkerID() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.workerID
}

func (h *heldLease) adopt(workerID string) {
	h.mu.Lock()
	h.workerID = workerID
	h.mu.Unlock()
}

func (h *heldLease) abandon() {
	h.mu.Lock()
	h.lost = true
	h.mu.Unlock()
	h.cancel()
}

func (h *heldLease) isLost() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lost
}

// NewWorker builds a worker; Run starts it.
func NewWorker(cfg WorkerConfig) *Worker {
	name := cfg.Name
	if name == "" {
		name, _ = os.Hostname()
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return &Worker{
		base:   strings.TrimRight(cfg.Coordinator, "/"),
		name:   name,
		pool:   solverpool.New(cfg.Slots),
		client: client,
		logf:   logf,
		log:    logger,
		held:   map[string]*heldLease{},
	}
}

// Kill simulates a crash: every solve stops, and nothing is reported or
// abandoned — the coordinator discovers the death by missed heartbeats and
// fails the worker's leases over.
func (w *Worker) Kill() {
	w.killed.Store(true)
	w.mu.Lock()
	cancel := w.cancel
	w.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// post sends one JSON request and decodes a 2xx body into out (skipped
// when out is nil); a non-2xx reply is returned as a statusError.
func (w *Worker) post(ctx context.Context, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e server.ErrorResponse
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &e) == nil && e.Message != "" {
			msg = e.Message
		}
		return &statusError{code: resp.StatusCode, apiCode: e.Code, msg: msg}
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

type statusError struct {
	code    int
	apiCode string // machine-readable code from the error envelope, if any
	msg     string
}

func (e *statusError) Error() string {
	if e.apiCode != "" {
		return fmt.Sprintf("%d %s: %s", e.code, e.apiCode, e.msg)
	}
	return fmt.Sprintf("%d: %s", e.code, e.msg)
}

func statusCode(err error) int {
	if se, ok := err.(*statusError); ok {
		return se.code
	}
	return 0
}

// register announces the worker, retrying until ctx ends (the daemon may
// come up after the worker). Re-registrations carry the held leases; the
// coordinator's per-lease adopt/abandon verdicts are applied before
// returning, so callers observe every surviving lease already moved to
// the fresh identity.
func (w *Worker) register(ctx context.Context) error {
	for {
		req := RegisterRequest{
			ProtocolVersion: ProtocolVersion,
			Name:            w.name,
			Capacity:        w.pool.Workers(),
			Engines:         engine.Names(),
			HeldLeases:      w.heldLeases(),
		}
		var resp RegisterResponse
		err := w.post(ctx, "/v1/workers/register", req, &resp)
		if err == nil {
			every := time.Duration(resp.ReportIntervalMS) * time.Millisecond
			if every <= 0 {
				every = time.Second
			}
			w.mu.Lock()
			w.id = resp.WorkerID
			w.reportEvery = every
			w.mu.Unlock()
			w.applyAdoptions(resp.WorkerID, resp.Adoptions)
			w.logf("registered as %s (capacity %d) with %s", resp.WorkerID, req.Capacity, w.base)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if code := statusCode(err); code >= 400 && code < 500 {
			// The daemon answered and refused: a 404 means it runs without
			// -cluster, a 400 a protocol mismatch — neither heals with
			// retries, and a supervisor should see the process fail.
			return fmt.Errorf("register with %s: %w", w.base, err)
		}
		w.logf("register: %v (retrying)", err)
		select {
		case <-time.After(time.Second):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func (w *Worker) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// heldLeases snapshots the live leases for a (re-)registration.
func (w *Worker) heldLeases() []HeldLease {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]HeldLease, 0, len(w.held))
	for _, h := range w.held {
		out = append(out, HeldLease{JobID: h.jobID, Token: h.token, Attempt: h.attempt})
	}
	return out
}

// applyAdoptions applies the coordinator's per-lease verdicts from a
// registration response: adopted leases move to the fresh worker identity,
// abandoned ones are cancelled through their handle.
func (w *Worker) applyAdoptions(workerID string, adoptions []LeaseAdoption) {
	for _, a := range adoptions {
		w.mu.Lock()
		h := w.held[a.JobID]
		w.mu.Unlock()
		if h == nil {
			continue
		}
		if a.Adopted {
			h.adopt(workerID)
			w.logf("job %s: lease adopted across coordinator restart", a.JobID)
			w.log.Info("lease adopted", "job", a.JobID, "trace_id", h.traceID, "worker_id", workerID)
		} else {
			w.logf("job %s: lease abandoned by coordinator: %s", a.JobID, a.Reason)
			w.log.Warn("lease abandoned", "job", a.JobID, "trace_id", h.traceID, "reason", a.Reason)
			h.abandon()
		}
	}
}

func (w *Worker) addHeld(h *heldLease) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.held[h.jobID] = h
}

func (w *Worker) dropHeld(jobID string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.held, jobID)
}

// reregister refreshes a registration the coordinator forgot,
// single-flight across the pullers: whichever puller saw the 404 first
// re-registers; the ones racing behind it observe the ID already moved on
// from staleID and reuse the fresh registration instead of creating
// duplicate worker entries.
func (w *Worker) reregister(ctx context.Context, staleID string) error {
	w.registerMu.Lock()
	defer w.registerMu.Unlock()
	if w.workerID() != staleID {
		return nil
	}
	return w.register(ctx)
}

func (w *Worker) reportInterval() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reportEvery
}

// Run registers with the coordinator and pulls leases on one goroutine per
// pool slot until ctx is cancelled; each puller is always either
// long-polling for a lease or reporting on a solve, so the worker's
// liveness needs no separate heartbeat loop. In-flight jobs are abandoned
// back to the coordinator on the way out, and the worker then leaves the
// cluster (unless Kill struck first).
func (w *Worker) Run(ctx context.Context) error {
	runCtx, cancel := context.WithCancel(ctx)
	w.mu.Lock()
	w.cancel = cancel
	w.mu.Unlock()
	defer cancel()
	if err := w.register(runCtx); err != nil {
		return err
	}
	// The first puller to hit a fatal error (a permanently refused
	// re-registration) records it and stops the siblings, so Run returns
	// non-nil and the process exits visibly instead of reporting a clean
	// drain.
	var wg sync.WaitGroup
	var fatalOnce sync.Once
	var fatalErr error
	for i := 0; i < w.pool.Workers(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.pull(runCtx); err != nil {
				fatalOnce.Do(func() {
					fatalErr = err
					cancel()
				})
			}
		}()
	}
	wg.Wait()
	if fatalErr != nil && ctx.Err() == nil {
		return fatalErr
	}
	if fatalErr == nil && !w.killed.Load() {
		w.leave()
	}
	return ctx.Err()
}

// leaveTimeout bounds the deregistration post of a graceful drain; the
// process is on its way out, so an unreachable coordinator just reaps it.
const leaveTimeout = 2 * time.Second

// leave tells the coordinator this worker drained, so its idle slots stop
// counting as free before the failure detector would reap it. Errors are
// only logged: reap still covers a lost post.
func (w *Worker) leave() {
	ctx, cancel := context.WithTimeout(context.Background(), leaveTimeout)
	defer cancel()
	if err := w.post(ctx, "/v1/workers/leave", LeaveRequest{WorkerID: w.workerID()}, nil); err != nil {
		w.logf("leave: %v", err)
	}
}

// pull is one slot's lease loop; it returns non-nil only on a fatal,
// non-transient error. The worker ID is captured per poll and pinned to
// the resulting lease: a re-registration by a sibling puller must not
// change the identity a running job reports under.
func (w *Worker) pull(ctx context.Context) error {
	for ctx.Err() == nil {
		id := w.workerID()
		var resp LeaseResponse
		err := w.post(ctx, "/v1/workers/lease", LeaseRequest{ProtocolVersion: ProtocolVersion, WorkerID: id}, &resp)
		switch {
		case err == nil:
			if resp.Job != nil {
				w.runJob(ctx, id, resp.Job)
			}
		case ctx.Err() != nil:
			return nil
		case statusCode(err) == http.StatusNotFound:
			// The coordinator forgot us (restart, timeout): re-register.
			w.logf("lease: %v", err)
			if rerr := w.reregister(ctx, id); rerr != nil {
				if ctx.Err() != nil {
					return nil
				}
				return rerr
			}
		default:
			w.logf("lease: %v (retrying)", err)
			select {
			case <-time.After(time.Second):
			case <-ctx.Done():
				return nil
			}
		}
	}
	return nil
}

// runJob solves one leased job, streaming progress reports and ending with
// a terminal report: Done with the result (or error), or Abandon when the
// worker is draining. Every report carries workerID, the identity the
// lease was granted under (not the live one, which a sibling puller's
// re-registration may have moved on). A killed worker reports nothing at
// all.
func (w *Worker) runJob(ctx context.Context, workerID string, lease *LeasedJob) {
	w.logf("job %s (attempt %d): %s", lease.ID, lease.Attempt, strings.Join(lease.Engines, ","))
	w.log.Info("lease received",
		"job", lease.ID, "trace_id", lease.TraceID,
		"attempt", lease.Attempt, "engines", strings.Join(lease.Engines, ","))
	jobCtx, cancelJob := context.WithCancel(ctx)
	defer cancelJob()
	// The held-lease handle is what survives a coordinator restart: a
	// re-registration (by any puller) presents it, and an adoption verdict
	// either moves its worker identity or cancels jobCtx through it.
	h := &heldLease{
		jobID:    lease.ID,
		token:    lease.Token,
		attempt:  lease.Attempt,
		traceID:  lease.TraceID,
		cancel:   cancelJob,
		workerID: workerID,
	}
	w.addHeld(h)
	defer w.dropHeld(lease.ID)

	// The attempt's spans accumulate locally and ship on the terminal
	// report; origin "worker:<name>" tells the trace reader which process
	// observed them.
	rec := obs.NewRecorder(lease.TraceID)
	origin := obs.OriginWorker + ":" + w.name
	progress := &solverpool.Progress{}
	decode := rec.Start("decode", origin)
	g, err := taskgraph.FromJSON(lease.Graph)
	if err != nil {
		decode.End("outcome", "error")
		w.finishJob(h, progress, rec, nil, fmt.Sprintf("decode graph: %v", err))
		return
	}
	sys, err := procgraph.FromJSON(lease.System)
	if err != nil {
		decode.End("outcome", "error")
		w.finishJob(h, progress, rec, nil, fmt.Sprintf("decode system: %v", err))
		return
	}
	decode.End("tasks", strconv.Itoa(g.NumNodes()))

	// The reporter doubles as the cancellation listener: a Cancel ack (or a
	// 410 for a lease the coordinator already revoked) stops the solve,
	// which then returns its incumbent within one expansion.
	var cancelled atomic.Bool
	// A re-registration the reporter starts runs under regCtx, not jobCtx:
	// the solve ending while it is in flight must not throw away an answer
	// that may already have adopted the lease. It outlives the solve by at
	// most terminalReportTimeout, so an unreachable coordinator cannot
	// wedge the slot.
	regCtx, cancelReg := context.WithCancel(ctx)
	defer cancelReg()
	reporterDone := make(chan struct{})
	go func() {
		defer close(reporterDone)
		ticker := time.NewTicker(w.reportInterval())
		defer ticker.Stop()
		for {
			select {
			case <-jobCtx.Done():
				return
			case <-ticker.C:
			}
			exp, gen := progress.Snapshot()
			pe, pf := progress.SnapshotPruned()
			inc, bestF, open := progress.Gauges()
			wid := h.currentWorkerID()
			var ack ReportResponse
			err := w.post(jobCtx, "/v1/workers/jobs/"+lease.ID+"/report",
				ReportRequest{ProtocolVersion: ProtocolVersion,
					WorkerID: wid, Expanded: exp, Generated: gen,
					PrunedEquiv: pe, PrunedFTO: pf,
					Incumbent: inc, BestF: bestF, OpenLen: open}, &ack)
			switch {
			case (err == nil && ack.Cancel) || statusCode(err) == http.StatusGone:
				// The lease is gone (cancelled or re-queued elsewhere).
				cancelled.Store(true)
				cancelJob()
				return
			case statusCode(err) == http.StatusNotFound:
				// The coordinator forgot this worker — typically a restart.
				// Re-register presenting the held leases: an adopted lease
				// keeps solving under the fresh identity the handle now
				// carries; an abandoned one was already cancelled through
				// the handle by applyAdoptions. A registration that failed
				// only after the solve ended is not a lost lease: finishJob's
				// own 404 path re-registers and delivers the result.
				rerr := w.reregister(regCtx, wid)
				if h.isLost() || (rerr != nil && jobCtx.Err() == nil) {
					cancelled.Store(true)
					cancelJob()
					return
				}
			}
		}
	}()

	res, errMessage := server.Solve(jobCtx, w.pool, server.DispatchJob{
		ID: lease.ID, Graph: g, System: sys, Engines: lease.Engines,
		Config: lease.Config, Progress: progress, Trace: rec,
	}, origin)
	cancelJob()
	stopReg := time.AfterFunc(terminalReportTimeout, cancelReg)
	<-reporterDone
	stopReg.Stop()

	switch {
	case w.killed.Load():
		// A crash reports nothing; the coordinator's failure detector
		// takes it from here.
	case cancelled.Load() || h.isLost():
		// The lease is gone coordinator-side; a final report would 410.
	case ctx.Err() != nil:
		// Draining: hand the job back for another worker to finish.
		w.abandonJob(h, progress)
	default:
		w.log.Info("job finished",
			"job", lease.ID, "trace_id", lease.TraceID,
			"attempt", lease.Attempt, "error", errMessage)
		w.finishJob(h, progress, rec, res, errMessage)
	}
}

// terminalReportTimeout bounds the final report of a job: it must outlive
// the run context (the solve is already over, and the outcome should
// reach the coordinator even mid-drain), but an unreachable coordinator
// must not wedge the slot — give up after the bound and let the
// coordinator's lease expiry re-queue the job.
const terminalReportTimeout = 10 * time.Second

// terminalReport assembles the final totals of an attempt — counters,
// gauges, and (for Done reports) the attempt's spans — from its live
// progress and recorder.
func terminalReport(workerID string, prog *solverpool.Progress, rec *obs.Recorder) ReportRequest {
	req := ReportRequest{ProtocolVersion: ProtocolVersion, WorkerID: workerID}
	req.Expanded, req.Generated = prog.Snapshot()
	req.PrunedEquiv, req.PrunedFTO = prog.SnapshotPruned()
	req.Incumbent, req.BestF, req.OpenLen = prog.Gauges()
	if rec != nil {
		req.Spans, _ = rec.Snapshot()
	}
	return req
}

// finishJob sends the terminal Done report. The coordinator may have
// revoked the lease meanwhile (410) — then the outcome is simply dropped.
// A 404 right as the solve ends usually means the coordinator restarted:
// re-register presenting the held leases, and if this lease is adopted,
// deliver the outcome once more under the fresh identity.
func (w *Worker) finishJob(h *heldLease, prog *solverpool.Progress, rec *obs.Recorder, res *server.JobResult, errMessage string) {
	ctx, cancel := context.WithTimeout(context.Background(), terminalReportTimeout)
	defer cancel()
	for attempt := 0; ; attempt++ {
		req := terminalReport(h.currentWorkerID(), prog, rec)
		req.Done, req.Result, req.Error = true, res, errMessage
		err := w.post(ctx, "/v1/workers/jobs/"+h.jobID+"/report", req, nil)
		if err == nil || statusCode(err) == http.StatusGone {
			return
		}
		if attempt == 0 && statusCode(err) == http.StatusNotFound {
			if rerr := w.reregister(ctx, h.currentWorkerID()); rerr == nil && !h.isLost() {
				continue
			}
		}
		w.logf("job %s: final report failed: %v", h.jobID, err)
		w.log.Warn("final report failed", "job", h.jobID, "trace_id", h.traceID, "error", err.Error())
		return
	}
}

// abandonJob hands a job back to the coordinator for re-leasing. No spans
// ride an Abandon: the attempt did not conclude, and the next lease's
// worker will record its own.
func (w *Worker) abandonJob(h *heldLease, prog *solverpool.Progress) {
	ctx, cancel := context.WithTimeout(context.Background(), terminalReportTimeout)
	defer cancel()
	req := terminalReport(h.currentWorkerID(), prog, nil)
	req.Abandon = true
	err := w.post(ctx, "/v1/workers/jobs/"+h.jobID+"/report", req, nil)
	if err != nil && statusCode(err) != http.StatusGone {
		w.logf("job %s: abandon failed: %v", h.jobID, err)
	}
}

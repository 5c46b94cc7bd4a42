package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/procgraph"
	"repro/internal/schedule"
	"repro/internal/solverpool"
	"repro/internal/stg"
	"repro/internal/taskgraph"
)

// This file defines the JSON wire types of the daemon's API — the contract
// shared by the HTTP handlers, the `icpp98 client` subcommand, and any
// other caller. docs/API.md documents the same shapes with examples; the
// two must move together.

// SubmitRequest is the body of POST /v1/jobs. Exactly one of Graph,
// GraphText, and GraphSTG supplies the task graph; System is either a
// JSON string holding a topology spec ("ring:3", see procgraph.ParseSpec)
// or a full procgraph JSON object, and defaults to complete:V. Engine
// names one registry engine (default "astar"); Engines names several to
// race as a portfolio and overrides Engine.
type SubmitRequest struct {
	// Graph is a taskgraph JSON object: {"name", "weights", "edges", ...}.
	Graph json.RawMessage `json:"graph,omitempty"`
	// GraphText is the native line-oriented text format of cmd/icpp98.
	GraphText string `json:"graph_text,omitempty"`
	// GraphSTG is a Standard Task Graph Set instance; STGEdgeCost, when
	// > 0, attaches a uniform communication cost to its edges.
	GraphSTG    string `json:"graph_stg,omitempty"`
	STGEdgeCost int32  `json:"stg_edge_cost,omitempty"`

	System json.RawMessage `json:"system,omitempty"`

	Engine  string    `json:"engine,omitempty"`
	Engines []string  `json:"engines,omitempty"`
	Config  JobConfig `json:"config,omitempty"`

	// Cache selects the schedule-cache mode: empty consults the
	// content-addressed cache (an identical prior submission's result is
	// returned without a solve), CacheBypass forces a fresh solve — the
	// escape hatch for benchmarking and for distrusting a cached entry.
	// A bypassed solve still refreshes the cache.
	Cache string `json:"cache,omitempty"`
}

// CacheBypass is the SubmitRequest.Cache value that forces a fresh solve.
const CacheBypass = "bypass"

// cacheKey addresses a submission in the schedule cache: the instance
// digest pair (graph structure + processor system, the same FNV-1a
// digests the pool's model memo uses, computed once when the instance was
// admitted) plus a digest of everything else that shapes the answer — the
// engine selection and every JobConfig field, mixed in one by one with
// list lengths (TestCacheKeyCoversConfig fails on a field left out). Keys
// live only in memory, so the digest may change between builds. Two
// submissions with equal keys ask the same question of instances the
// cache then compares exactly, so the cached result is returned verbatim
// (modulo the job ID).
func cacheKey(in *instance, engines []string, cfg JobConfig) solverpool.CacheKey {
	d := solverpool.NewDigest()
	d.AddUint64(uint64(len(engines)))
	for _, name := range engines {
		d.AddString(name)
	}
	d.AddUint64(math.Float64bits(cfg.Epsilon))
	d.AddUint64(uint64(cfg.MaxExpanded))
	d.AddUint64(uint64(cfg.TimeoutMS))
	d.AddUint64(uint64(cfg.PPEs))
	d.AddUint64(uint64(cfg.Workers))
	var flags uint64
	if cfg.NoPruning {
		flags |= 1
	}
	if cfg.HPlus {
		flags |= 2
	}
	d.AddUint64(flags)
	d.AddString(cfg.HFunc)
	d.AddUint64(uint64(len(cfg.Disable)))
	for _, name := range cfg.Disable {
		d.AddString(name)
	}
	return solverpool.CacheKey{Graph: in.graphDigest, System: in.systemDigest, Config: uint64(d)}
}

// JobConfig is the budget/variant surface of engine.Config a network
// caller controls. Tracers and distribution policies stay in-process.
type JobConfig struct {
	// Epsilon > 0 requests the bounded-suboptimal search on ε-capable
	// engines (aeps, parallel).
	Epsilon float64 `json:"epsilon,omitempty"`
	// MaxExpanded > 0 caps the number of state expansions.
	MaxExpanded int64 `json:"max_expanded,omitempty"`
	// TimeoutMS > 0 caps the solve's wall-clock time in milliseconds.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// PPEs sets the parallel engine's worker count (0 selects its default).
	PPEs int `json:"ppes,omitempty"`
	// Workers sets the native engine's worker count (0 selects one worker
	// per core on the solving host).
	Workers int `json:"workers,omitempty"`
	// NoPruning disables the §3.2 prunings (ablation runs).
	NoPruning bool `json:"no_pruning,omitempty"`
	// HPlus selects the strengthened admissible heuristic — the practical
	// choice for large (v > 64) instances, whose static-lower-bound term
	// often proves optimality in a single dive.
	HPlus bool `json:"h_plus,omitempty"`
	// HFunc names a heuristic tier ("paper", "plus", "load"); it overrides
	// HPlus when set.
	HFunc string `json:"h_func,omitempty"`
	// Disable lists individual prunings to switch off by name ("iso",
	// "equivalence", "equivalent-tasks", "fto", "upper-bound",
	// "priority-order", "duplicate-check", "all"); ablation's fine-grained
	// sibling of NoPruning.
	Disable []string `json:"disable,omitempty"`
}

// Validate rejects unknown heuristic-tier and pruning names at submit time,
// so a typo fails the request with a 400 instead of silently solving under
// the default configuration.
func (c JobConfig) Validate() error {
	if c.HFunc != "" {
		if _, ok := core.HFuncByName(c.HFunc); !ok {
			return fmt.Errorf("unknown h_func %q (want paper, plus, or load)", c.HFunc)
		}
	}
	for _, name := range c.Disable {
		if _, ok := core.DisableByName(name); !ok {
			return fmt.Errorf("unknown pruning name %q in disable", name)
		}
	}
	return nil
}

// EngineConfig translates the wire budget into the registry configuration.
// Cluster workers call it on the leased job's config, so the remote solve
// runs under exactly the budget the submitter asked for. Unknown names in
// HFunc/Disable are ignored here — Validate rejects them at submit time.
func (c JobConfig) EngineConfig() engine.Config {
	cfg := engine.Config{
		Epsilon:     c.Epsilon,
		MaxExpanded: c.MaxExpanded,
		PPEs:        c.PPEs,
		Workers:     c.Workers,
	}
	if c.TimeoutMS > 0 {
		cfg.Timeout = time.Duration(c.TimeoutMS) * time.Millisecond
	}
	if c.NoPruning {
		cfg.Disable = core.DisableAllPruning
	}
	for _, name := range c.Disable {
		if d, ok := core.DisableByName(name); ok {
			cfg.Disable |= d
		}
	}
	if c.HPlus {
		cfg.HFunc = core.HPlus
	}
	if c.HFunc != "" {
		if h, ok := core.HFuncByName(c.HFunc); ok {
			cfg.HFunc = h
		}
	}
	return cfg
}

// SubmitResponse is the body of a successful POST /v1/jobs.
type SubmitResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// JobProgress is the live view of a running search.
type JobProgress struct {
	// Expanded and Generated count search states across every engine (and
	// every PPE) the job is running.
	Expanded  int64 `json:"expanded"`
	Generated int64 `json:"generated"`
	// PrunedEquiv and PrunedFTO count the ready nodes the search skipped so
	// far via the equivalent-task pruning and the fixed-task-order collapse
	// — the live view of pruning effectiveness.
	PrunedEquiv int64 `json:"pruned_equiv,omitempty"`
	PrunedFTO   int64 `json:"pruned_fto,omitempty"`
	// ElapsedMS is the wall-clock time since the job started running
	// (0 while queued).
	ElapsedMS int64 `json:"elapsed_ms"`
}

// JobStatus is the body of GET /v1/jobs/{id} and one line of the
// /events stream. Length/Optimal appear once a terminal job has a
// schedule (a cancelled job keeps its best incumbent).
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // queued | running | done | failed | cancelled
	// Seq numbers the /events snapshots of one job monotonically across
	// every stream (it lives in the job store, not the connection, and
	// bumps on every snapshot delivered anywhere), so a reconnecting
	// watcher is guaranteed strictly larger values than anything it
	// already saw; it is 0 outside /events.
	Seq      int64       `json:"seq,omitempty"`
	Engines  []string    `json:"engines"`
	Created  string      `json:"created"` // RFC 3339
	Started  string      `json:"started,omitempty"`
	Finished string      `json:"finished,omitempty"`
	Progress JobProgress `json:"progress"`
	// Cache reports the job's schedule-cache interaction: "hit" when the
	// result was answered from the memo without a solve, "bypass" when the
	// submitter skipped the lookup, absent on an ordinary miss.
	Cache   string `json:"cache,omitempty"`
	Error   string `json:"error,omitempty"`
	Length  int32  `json:"length,omitempty"`
	Optimal bool   `json:"optimal,omitempty"`
}

// JobList is the body of GET /v1/jobs.
type JobList struct {
	Jobs []JobStatus `json:"jobs"`
}

// TraceResponse is the body of GET /v1/jobs/{id}/trace: the job's
// lifecycle spans ordered by start time — daemon, coordinator, and remote
// worker origins folded into one timeline — plus the sampled search
// telemetry when a solve actually ran (a cache-hit job has none).
type TraceResponse struct {
	ID      string     `json:"id"`
	TraceID string     `json:"trace_id"`
	State   string     `json:"state"`
	Spans   []obs.Span `json:"spans"`
	// DroppedSpans counts spans discarded past the per-job cap.
	DroppedSpans int               `json:"dropped_spans,omitempty"`
	Telemetry    *TelemetryPayload `json:"telemetry,omitempty"`
}

// TelemetryPayload is the sampled convergence time-series of one job's
// search: the retained trailing samples, the lifetime sample count
// (total > len(samples) means the ring wrapped), and the roll-up.
type TelemetryPayload struct {
	Samples []obs.Sample `json:"samples"`
	Total   int          `json:"total"`
	Summary obs.Summary  `json:"summary"`
}

// PlacementPayload is one task's assignment in a wire schedule.
type PlacementPayload struct {
	Node   int32  `json:"node"`
	Label  string `json:"label,omitempty"`
	Proc   int32  `json:"proc"`
	Start  int32  `json:"start"`
	Finish int32  `json:"finish"`
}

// SchedulePayload is the wire form of a complete schedule.
type SchedulePayload struct {
	Length     int32              `json:"length"`
	Placements []PlacementPayload `json:"placements"`
}

// LoserPayload summarizes a cancelled portfolio entrant.
type LoserPayload struct {
	Length   int32 `json:"length,omitempty"`
	Optimal  bool  `json:"optimal"`
	Expanded int64 `json:"expanded"`
}

// JobResult is the body of GET /v1/jobs/{id}/result.
type JobResult struct {
	ID          string                  `json:"id"`
	State       string                  `json:"state"`
	Engine      string                  `json:"engine"` // the engine that produced the schedule
	Length      int32                   `json:"length"`
	Optimal     bool                    `json:"optimal"`
	BoundFactor float64                 `json:"bound_factor"`
	Schedule    SchedulePayload         `json:"schedule"`
	Stats       core.Stats              `json:"stats"`
	Losers      map[string]LoserPayload `json:"losers,omitempty"`
	Errs        map[string]string       `json:"errs,omitempty"`
}

// NewSchedulePayload flattens a validated schedule into the wire form. The
// daemon uses it for local solves; cluster workers use it to report theirs.
func NewSchedulePayload(s *schedule.Schedule) SchedulePayload {
	out := SchedulePayload{Length: s.Length, Placements: make([]PlacementPayload, len(s.Place))}
	for n, p := range s.Place {
		out.Placements[n] = PlacementPayload{
			Node:   int32(n),
			Label:  s.Graph.Label(int32(n)),
			Proc:   p.Proc,
			Start:  p.Start,
			Finish: p.Finish,
		}
	}
	return out
}

// ToSchedule rebuilds a validatable schedule.Schedule from the wire form
// against the instance the caller submitted — the client-side check that a
// returned schedule really is feasible.
func (sp SchedulePayload) ToSchedule(g *taskgraph.Graph, sys *procgraph.System) (*schedule.Schedule, error) {
	if len(sp.Placements) != g.NumNodes() {
		return nil, fmt.Errorf("server: schedule has %d placements for %d nodes", len(sp.Placements), g.NumNodes())
	}
	place := make([]schedule.Placement, g.NumNodes())
	for _, p := range sp.Placements {
		if p.Node < 0 || int(p.Node) >= g.NumNodes() {
			return nil, fmt.Errorf("server: placement for out-of-range node %d", p.Node)
		}
		place[p.Node] = schedule.Placement{Proc: p.Proc, Start: p.Start, Finish: p.Finish}
	}
	return schedule.New(g, sys, place), nil
}

// EngineInfo is one row of GET /v1/engines.
type EngineInfo struct {
	Name        string `json:"name"`
	Section     string `json:"section,omitempty"`
	Description string `json:"description,omitempty"`
	// ClusterWorkers counts the live remote workers advertising this
	// engine — the cluster view of the registry. Absent without a cluster
	// (the local registry always serves every listed engine).
	ClusterWorkers int `json:"cluster_workers,omitempty"`
}

// Health is the body of GET /v1/healthz.
type Health struct {
	Status   string `json:"status"` // "ok" | "shutting-down"
	Workers  int    `json:"workers"`
	InFlight int64  `json:"in_flight"`
	// Jobs counts live (queued or running) jobs. It used to count every
	// retained job including finished ones — which made a daemon full of
	// old results look loaded; RetainedJobs keeps that total.
	Jobs         int   `json:"jobs"`
	RetainedJobs int   `json:"retained_jobs"` // every job in the store, terminal included
	ModelsBuilt  int64 `json:"models_built"`
	ModelHits    int64 `json:"model_hits"`
	// Cache is the schedule-cache view; absent when the cache is disabled.
	Cache *solverpool.CacheStats `json:"cache,omitempty"`
	// ActiveJobs counts retained jobs that are queued or running, and
	// Capacity the solve slots they compete for: the local pool plus every
	// live cluster worker. These two are the backpressure inputs — see
	// DESIGN.md §9.
	ActiveJobs int `json:"active_jobs"`
	Capacity   int `json:"capacity"`
	// Cluster is the coordinator view; absent when the daemon runs
	// without -cluster.
	Cluster *ClusterHealth `json:"cluster,omitempty"`
	// Build identifies the running binary (also exported as the
	// repro_build_info metric).
	Build *BuildInfo `json:"build,omitempty"`
}

// BuildInfo is the binary's identity from debug.ReadBuildInfo: surfaced
// in /v1/healthz and as the repro_build_info metric so an operator can
// tell which revision answered.
type BuildInfo struct {
	// Module is the main module path ("repro").
	Module string `json:"module,omitempty"`
	// Version is the main module version ("(devel)" for source builds).
	Version string `json:"version,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Revision is the VCS commit the binary was built from, when stamped.
	Revision string `json:"revision,omitempty"`
	// Dirty marks a build from a modified working tree.
	Dirty bool `json:"dirty,omitempty"`
}

// ClusterHealth is the coordinator's aggregate view inside /v1/healthz.
type ClusterHealth struct {
	Workers    int   `json:"workers"`             // live registered workers
	Capacity   int   `json:"capacity"`            // sum of their solve slots
	Leased     int   `json:"leased"`              // jobs currently leased out
	Pending    int   `json:"pending"`             // jobs queued for a lease
	Dispatched int64 `json:"dispatched"`          // leases granted since start
	Failovers  int64 `json:"failovers"`           // re-queues after a death/expiry/abandon
	Adoptions  int64 `json:"adoptions,omitempty"` // recovered leases re-adopted across a restart
}

// ErrorResponse is the unified error envelope: the body of every non-2xx
// response from every /v1 endpoint, job API and cluster worker API alike.
// Code is a stable machine-readable identifier from the Err* catalog
// below; Message is the human-readable detail; JobID names the job the
// error concerns when there is one. docs/API.md documents every code.
type ErrorResponse struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	JobID   string `json:"job_id,omitempty"`
}

// The error-code catalog. Codes are part of the wire contract: clients
// switch on them, so a code never changes meaning once shipped.
const (
	// ErrCodeBadRequest: the request body or parameters failed to decode
	// or validate (malformed JSON, unknown field, bad engine name, bad
	// instance, oversize graph).
	ErrCodeBadRequest = "bad_request"
	// ErrCodeUnknownJob: the path names a job the store does not hold.
	ErrCodeUnknownJob = "unknown_job"
	// ErrCodeNoResult: the job is terminal without a schedule (failed or
	// cancelled before an incumbent), so /result and /gantt have nothing
	// to render.
	ErrCodeNoResult = "no_result"
	// ErrCodeNoTrace: the job predates durable traces (recovered from a
	// store written before spans were spilled), so /trace has no timeline.
	ErrCodeNoTrace = "no_trace"
	// ErrCodeStoreFull: admission would exceed the retained-job cap and
	// no terminal job could be evicted.
	ErrCodeStoreFull = "store_full"
	// ErrCodeBacklogFull: admission would exceed the queued-jobs-per-slot
	// backpressure bound; retry later or add capacity.
	ErrCodeBacklogFull = "backlog_full"
	// ErrCodeShuttingDown: the daemon is draining and accepts no new work.
	ErrCodeShuttingDown = "shutting_down"
	// ErrCodeInternal: the handler failed for a reason that is not the
	// caller's fault.
	ErrCodeInternal = "internal"
	// ErrCodeUnknownWorker: the worker ID is not registered (the
	// coordinator restarted or timed the worker out); the worker must
	// re-register, presenting any leases it still holds.
	ErrCodeUnknownWorker = "unknown_worker"
	// ErrCodeLeaseGone: the reported job is no longer leased to this
	// worker (it failed over, finished, or was cancelled); the worker
	// drops the solve.
	ErrCodeLeaseGone = "lease_gone"
	// ErrCodeProtocolMismatch: the worker speaks a different cluster wire
	// protocol revision than the coordinator; the message names both
	// versions. Not retryable — redeploy the older side.
	ErrCodeProtocolMismatch = "protocol_mismatch"
)

// decodeInstance turns a submit request into a validated (graph, system)
// pair. Every failure is a client error (HTTP 400).
func decodeInstance(req *SubmitRequest) (*taskgraph.Graph, *procgraph.System, error) {
	sources := 0
	for _, set := range []bool{len(req.Graph) > 0, req.GraphText != "", req.GraphSTG != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, nil, fmt.Errorf("exactly one of graph, graph_text, graph_stg must be set")
	}
	var g *taskgraph.Graph
	var err error
	switch {
	case len(req.Graph) > 0:
		g, err = taskgraph.FromJSON(req.Graph)
	case req.GraphText != "":
		g, err = taskgraph.Parse(strings.NewReader(req.GraphText))
	default:
		g, err = stg.Read(strings.NewReader(req.GraphSTG), stg.ImportOptions{EdgeCost: req.STGEdgeCost})
	}
	if err != nil {
		return nil, nil, err
	}
	// The default system has one PE per task, capped at the engines' task
	// limit so an oversize graph cannot make it allocate a huge distance
	// matrix before CheckInstance rejects the graph.
	sys, err := decodeSystem(req.System, min(g.NumNodes(), core.MaxNodes))
	if err != nil {
		return nil, nil, err
	}
	// Reject what no engine can search (too many tasks, costs beyond the
	// int32 search arithmetic) at the door with the documented error shape,
	// instead of letting the job fail, or overflow, at solve time.
	if err := core.CheckInstance(g, sys); err != nil {
		return nil, nil, err
	}
	return g, sys, nil
}

// decodeSystem accepts a JSON string spec ("ring:3"), a procgraph JSON
// object, or nothing (complete:V, one PE per task).
func decodeSystem(raw json.RawMessage, defaultProcs int) (*procgraph.System, error) {
	trimmed := strings.TrimSpace(string(raw))
	switch {
	case trimmed == "" || trimmed == "null":
		return procgraph.ParseSpec("", defaultProcs)
	case strings.HasPrefix(trimmed, `"`):
		var spec string
		if err := json.Unmarshal(raw, &spec); err != nil {
			return nil, err
		}
		return procgraph.ParseSpec(spec, defaultProcs)
	default:
		return procgraph.FromJSON(raw)
	}
}

// Solve runs one job's instance on pool — a portfolio race when several
// engines are named, else the single engine (the registry default when
// none is) — under the job's wire budget, feeding job.Progress and
// recording the "solve" span on job.Trace under origin. It is the one
// solve path: a daemon's semaphore-gated jobs, a clustered daemon's local
// slots, and a cluster worker's leases all run it, so a remote solve
// reports byte-identical payloads to a local one. A solve that yields no
// schedule returns a nil result with an empty message, and the job then
// fails (finishJob) unless it was interrupted.
func Solve(ctx context.Context, pool *solverpool.Pool, job DispatchJob, origin string) (*JobResult, string) {
	cfg := job.Config.EngineConfig()
	cfg.Progress = job.Progress
	span := job.Trace.Start("solve", origin)
	if len(job.Engines) > 1 {
		pf, err := pool.SolvePortfolio(ctx, job.Graph, job.System, job.Engines, cfg)
		if err != nil {
			span.End("engines", engineKey(job.Engines), "outcome", "error")
			return nil, err.Error()
		}
		span.End("engines", engineKey(job.Engines), "winner", pf.Winner)
		return jobResultFromPortfolio(job.ID, pf), ""
	}
	name := ""
	if len(job.Engines) == 1 {
		name = job.Engines[0]
	}
	resp := pool.Solve(ctx, solverpool.Request{Graph: job.Graph, System: job.System, Engine: name, Config: cfg})
	if resp.Err != nil {
		span.End("engine", name, "outcome", "error")
		return nil, resp.Err.Error()
	}
	span.End("engine", name)
	return jobResultFromSolve(job.ID, resp), ""
}

// jobResultFromSolve builds the wire result of a single-engine solve. It
// returns nil when the response carries no schedule (an engine-contract
// violation the job records as a failure rather than panic on).
func jobResultFromSolve(id string, resp solverpool.Response) *JobResult {
	if resp.Result == nil || resp.Result.Schedule == nil {
		return nil
	}
	return &JobResult{
		ID:          id,
		Engine:      resp.Engine,
		Length:      resp.Result.Length,
		Optimal:     resp.Result.Optimal,
		BoundFactor: resp.Result.BoundFactor,
		Schedule:    NewSchedulePayload(resp.Result.Schedule),
		Stats:       resp.Result.Stats,
	}
}

// jobResultFromPortfolio builds the wire result of a portfolio race,
// summarizing the cancelled losers and outright failures. Nil when the
// winner has no schedule.
func jobResultFromPortfolio(id string, pf *solverpool.PortfolioResult) *JobResult {
	if pf.Result == nil || pf.Result.Schedule == nil {
		return nil
	}
	res := &JobResult{
		ID:          id,
		Engine:      pf.Winner,
		Length:      pf.Result.Length,
		Optimal:     pf.Result.Optimal,
		BoundFactor: pf.Result.BoundFactor,
		Schedule:    NewSchedulePayload(pf.Result.Schedule),
		Stats:       pf.Result.Stats,
	}
	if len(pf.Losers) > 0 {
		res.Losers = map[string]LoserPayload{}
		for name, l := range pf.Losers {
			lp := LoserPayload{Optimal: l.Optimal, Expanded: l.Stats.Expanded}
			if l.Schedule != nil {
				lp.Length = l.Length
			}
			res.Losers[name] = lp
		}
	}
	if len(pf.Errs) > 0 {
		res.Errs = map[string]string{}
		for name, err := range pf.Errs {
			res.Errs[name] = err.Error()
		}
	}
	return res
}

// engineNames resolves the request's engine selection: the portfolio list
// when given, else the single engine, else astar. Every name is validated
// against the registry at submit time so unknown engines fail fast with a
// 400 instead of a failed job.
func engineNames(req *SubmitRequest) ([]string, error) {
	names := req.Engines
	if len(names) == 0 {
		name := req.Engine
		if name == "" {
			name = "astar"
		}
		names = []string{name}
	}
	for _, name := range names {
		if _, err := engine.Lookup(name); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// Package repro is a Go reproduction of Kwok & Ahmad, "Optimal and
// Near-Optimal Allocation of Precedence-Constrained Tasks to Parallel
// Processors: Defying the High Complexity Using Effective Search
// Techniques" (ICPP 1998): optimal multiprocessor DAG scheduling by A*
// state-space search with processor-isomorphism / node-equivalence /
// upper-bound pruning, a bulk-synchronous parallel A*, the approximate Aε*
// with a proven (1+ε) bound, and the Chen & Yu branch-and-bound baseline.
//
// This package is the public facade over the implementation packages in
// internal/; it re-exports the types a scheduler user needs and offers
// one-call entry points:
//
//	g := repro.NewGraphBuilder("app")
//	a := g.AddNode(2)
//	b := g.AddNode(3)
//	g.AddEdge(a, b, 1)
//	graph, _ := g.Build()
//	sys := repro.Ring(3)
//	res, _ := repro.ScheduleOptimal(graph, sys)
//	fmt.Println(res.Length, res.Optimal)
//	fmt.Print(res.Schedule.Gantt(8))
//
// Every optimal engine is a named plug-in in the internal/engine registry
// (Engines lists them); Solve runs any of them by name, SolveBatch runs
// many requests over a bounded worker pool, and SolvePortfolio races
// several engines on one instance, cancelling the losers as soon as one
// proves optimality. NewServer exposes the same pool over HTTP as an async
// job API (cmd/icpp98d is the packaged daemon, `icpp98 client` the
// command-line client, docs/API.md the endpoint reference).
//
// See README.md for the quickstart and the engine table, and DESIGN.md for
// the system inventory and benchmark instructions.
package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/listsched"
	"repro/internal/procgraph"
	"repro/internal/schedule"
	"repro/internal/server"
	"repro/internal/solverpool"
	"repro/internal/stg"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

// Re-exported model types.
type (
	// Graph is a node- and edge-weighted task DAG.
	Graph = taskgraph.Graph
	// GraphBuilder assembles a Graph.
	GraphBuilder = taskgraph.Builder
	// System is a target multiprocessor (or PPE interconnect).
	System = procgraph.System
	// SystemConfig customizes speeds and the link model.
	SystemConfig = procgraph.Config
	// Schedule is a complete, validatable schedule.
	Schedule = schedule.Schedule
	// Placement is one task's processor and time window.
	Placement = schedule.Placement
	// Result is a solver outcome: schedule, proven length, optimality flag,
	// bound factor, and search statistics.
	Result = core.Result
	// SearchStats counts search effort.
	SearchStats = core.Stats
	// EngineConfig is the consolidated configuration every registry engine
	// accepts: pruning toggles, ε, heuristic, upper bound, expansion/time
	// budgets, tracers, and the parallel/depth-first extras.
	EngineConfig = engine.Config
	// SolveOptions configures the serial engines. It is the same type as
	// EngineConfig — every engine shares one configuration.
	SolveOptions = engine.Config
	// ParallelOptions configures the parallel engine (same type as
	// EngineConfig).
	ParallelOptions = engine.Config
	// DepthFirstOptions configures the memory-light DFBB and IDA* engines
	// (same type as EngineConfig).
	DepthFirstOptions = engine.Config
	// ListOptions configures the list-scheduling heuristic.
	ListOptions = listsched.Options
	// RandomGraphConfig parameterizes the paper's §4.1 workload generator.
	RandomGraphConfig = gen.RandomConfig
	// SearchTracer observes expansion/generation events of a search.
	SearchTracer = core.Tracer
	// SearchRecorder records a search into a Figure 3/5-style tree
	// (assign to SolveOptions.Tracer, or EngineConfig.TracerFor for the
	// parallel engine via its ForPPE method) and renders it as ASCII or
	// Graphviz.
	SearchRecorder = trace.Recorder
	// STGImportOptions configures ReadSTG.
	STGImportOptions = stg.ImportOptions

	// Pool is the concurrent batch/portfolio solve service: a bounded
	// worker pool with model memoization by instance digest.
	Pool = solverpool.Pool
	// SolveRequest is one batch job: an instance plus engine name and
	// configuration.
	SolveRequest = solverpool.Request
	// SolveResponse is one batch outcome.
	SolveResponse = solverpool.Response
	// PortfolioResult reports an engine race: the winner, its result, and
	// the cancelled losers with their partial stats.
	PortfolioResult = solverpool.PortfolioResult

	// Server is the network solve daemon: an http.Handler exposing the
	// async job API of internal/server (submit, status, progress stream,
	// result, cancel) over the solver pool. cmd/icpp98d serves one.
	Server = server.Server
	// ServerConfig sizes a Server: workers, job-store bound, result TTL.
	ServerConfig = server.Config
	// JobRequest is the wire form of a job submission (POST /v1/jobs);
	// shared by the daemon and the `icpp98 client` subcommand.
	JobRequest = server.SubmitRequest
	// JobConfig is the engine budget/variant surface of a JobRequest.
	JobConfig = server.JobConfig
	// JobStatus is the wire form of a job's state and live progress.
	JobStatus = server.JobStatus
	// JobResult is the wire form of a finished schedule.
	JobResult = server.JobResult
)

// NewServer builds the network solve daemon. Serve it with net/http and
// call Close on shutdown to cancel outstanding jobs and drain workers:
//
//	srv := repro.NewServer(repro.ServerConfig{Workers: 8})
//	defer srv.Close()
//	http.ListenAndServe(":8098", srv)
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// NewSearchRecorder starts recording a search over g.
func NewSearchRecorder(g *Graph) *SearchRecorder { return trace.NewRecorder(g) }

// ReadSTG parses a Standard Task Graph Set instance.
var ReadSTG = stg.Read

// WriteSTG emits a graph in Standard Task Graph format (edge costs are not
// representable and are dropped).
var WriteSTG = stg.Write

// Pruning/feature toggles of the serial and parallel A* engines.
const (
	DisableIsomorphism     = core.DisableIsomorphism
	DisableEquivalence     = core.DisableEquivalence
	DisableUpperBound      = core.DisableUpperBound
	DisablePriorityOrder   = core.DisablePriorityOrder
	DisableEquivalentTasks = core.DisableEquivalentTasks
	DisableFTO             = core.DisableFTO
	DisableAllPruning      = core.DisableAllPruning
)

// Heuristic selectors for EngineConfig.HFunc: the paper's h (default), the
// strengthened admissible variant recommended for large instances, and the
// load-balance/critical-path tier on top of it.
const (
	HPaper = core.HPaper
	HPlus  = core.HPlus
	HLoad  = core.HLoad
)

// MaxTasks is the largest task graph every engine accepts — the capacity of
// a search state's multi-word scheduled-set mask. Oversize graphs are
// rejected by Solve (and by the daemon at submit time) with an error naming
// this cap.
const MaxTasks = core.MaxNodes

// NewGraphBuilder starts a task graph.
func NewGraphBuilder(name string) *GraphBuilder { return taskgraph.NewBuilder(name) }

// Topology constructors for target systems and PPE interconnects.
var (
	Complete  = procgraph.Complete
	Ring      = procgraph.Ring
	Chain     = procgraph.Chain
	Star      = procgraph.Star
	Mesh      = procgraph.Mesh
	Torus     = procgraph.Torus
	Hypercube = procgraph.Hypercube
)

// CompleteWith builds a fully connected system with a Config (heterogeneous
// speeds, uniform links).
var CompleteWith = procgraph.CompleteWith

// Workload generators.
var (
	// RandomGraph generates a §4.1 random DAG.
	RandomGraph = gen.Random
	// PaperExample returns the Figure 1 worked-example DAG (optimal length
	// 14 on Ring(3)).
	PaperExample = gen.PaperExample
	// GaussianElimination, FFT, ForkJoin, Wavefront build classic
	// application task graphs.
	GaussianElimination = gen.GaussianElimination
	FFT                 = gen.FFT
	ForkJoin            = gen.ForkJoin
	Wavefront           = gen.Wavefront
)

// Engines returns the names of every registered search engine, sorted.
func Engines() []string { return engine.Names() }

// EngineInfo describes one registered engine for listings.
type EngineInfo struct {
	Name        string
	Section     string // paper section the engine implements
	Description string
}

// EngineTable returns metadata for every registered engine, sorted by name.
func EngineTable() []EngineInfo {
	var out []EngineInfo
	for _, e := range engine.All() {
		section, desc := engine.Describe(e)
		out = append(out, EngineInfo{Name: e.Name(), Section: section, Description: desc})
	}
	return out
}

// Solve runs the named registry engine ("astar", "aeps", "dfbb", "ida",
// "bnb", "parallel", ...) on the instance. Cancelling ctx stops the search
// promptly and yields the best schedule found so far with Optimal=false.
func Solve(ctx context.Context, g *Graph, sys *System, engineName string, cfg EngineConfig) (*Result, error) {
	return engine.Solve(ctx, engineName, g, sys, cfg)
}

// ScheduleOptimal finds a provably optimal schedule with the serial A* of
// §3.1–3.2 (all prunings enabled).
func ScheduleOptimal(g *Graph, sys *System) (*Result, error) {
	return Solve(context.Background(), g, sys, "astar", EngineConfig{})
}

// ScheduleOptimalWith is ScheduleOptimal with explicit options (pruning
// toggles, cutoffs, ε — Epsilon > 0 selects the Aε* engine).
func ScheduleOptimalWith(g *Graph, sys *System, opt SolveOptions) (*Result, error) {
	name := "astar"
	if opt.Epsilon > 0 {
		name = "aeps"
	}
	return Solve(context.Background(), g, sys, name, opt)
}

// ScheduleApprox finds a schedule within (1+eps) of optimal with the Aε* of
// §3.4. eps <= 0 degenerates to the exact serial A* (a 0-deviation bound),
// so sweeps down to zero keep their guarantee.
func ScheduleApprox(g *Graph, sys *System, eps float64) (*Result, error) {
	if eps <= 0 {
		return Solve(context.Background(), g, sys, "astar", EngineConfig{})
	}
	return Solve(context.Background(), g, sys, "aeps", EngineConfig{Epsilon: eps})
}

// ScheduleParallel finds a provably optimal schedule with the parallel A*
// of §3.3 on the given number of PPE workers.
func ScheduleParallel(g *Graph, sys *System, ppes int) (*Result, error) {
	return Solve(context.Background(), g, sys, "parallel", EngineConfig{PPEs: ppes})
}

// ScheduleParallelWith is ScheduleParallel with explicit options
// (interconnect, ε, distribution policy, period floor, cutoffs).
func ScheduleParallelWith(g *Graph, sys *System, opt ParallelOptions) (*Result, error) {
	return Solve(context.Background(), g, sys, "parallel", opt)
}

// ScheduleList runs the linear-time list-scheduling heuristic (the paper's
// upper-bound heuristic, ref. [14]) — fast, feasible, no optimality
// guarantee.
func ScheduleList(g *Graph, sys *System, opt ListOptions) (*Schedule, error) {
	return listsched.Schedule(g, sys, opt)
}

// NamedHeuristic pairs a display name with a polynomial-time scheduling
// heuristic, for deviation studies against the optimal engines.
type NamedHeuristic = listsched.Named

// Heuristics returns every list-scheduling heuristic in the library: the
// static-priority scheduler (b-level / bl+tl / static-level, optional
// insertion) and the classic dynamic heuristics ETF, MCP, and DLS.
func Heuristics() []NamedHeuristic { return listsched.All() }

// ScheduleDFBB finds a provably optimal schedule by depth-first
// branch-and-bound: the same state space, cost function, and §3.2 prunings
// as the A* engine, but O(v) retained states — the memory-light answer to
// the "huge memory requirement" problem the paper's §1 calls out.
func ScheduleDFBB(g *Graph, sys *System, opt DepthFirstOptions) (*Result, error) {
	return Solve(context.Background(), g, sys, "dfbb", opt)
}

// ScheduleIDAStar finds a provably optimal schedule by iterative-deepening
// A*: depth-first passes under a rising f threshold, no OPEN or CLOSED
// lists at all.
func ScheduleIDAStar(g *Graph, sys *System, opt DepthFirstOptions) (*Result, error) {
	return Solve(context.Background(), g, sys, "ida", opt)
}

// ScheduleBnB runs the Chen & Yu branch-and-bound baseline the paper
// compares against (§2, §4.2).
func ScheduleBnB(g *Graph, sys *System) (*Schedule, int32, bool, error) {
	res, err := Solve(context.Background(), g, sys, "bnb", EngineConfig{})
	if err != nil {
		return nil, 0, false, err
	}
	return res.Schedule, res.Length, res.Optimal, nil
}

// NewPool returns a concurrent solve service running at most workers
// solves at once (workers < 1 selects GOMAXPROCS). Pools memoize the
// compiled search model of each distinct (graph, system) instance, so
// resolving the same instance — or racing engines on it — costs one model
// build.
func NewPool(workers int) *Pool { return solverpool.New(workers) }

// defaultPool serves the package-level batch/portfolio calls.
var defaultPool = solverpool.New(0)

// SolveBatch runs many solve requests concurrently over a bounded worker
// pool and returns the responses in request order. Each request carries
// its own engine name and budget; cancelling ctx stops everything promptly.
func SolveBatch(ctx context.Context, reqs []SolveRequest) []SolveResponse {
	return defaultPool.SolveBatch(ctx, reqs)
}

// SolvePortfolio races the named engines (all registered engines when
// names is empty) on one instance, returns as soon as one proves
// optimality, and cancels the rest; the losers' partial stats record how
// far they got before being stopped.
func SolvePortfolio(ctx context.Context, g *Graph, sys *System, names []string, cfg EngineConfig) (*PortfolioResult, error) {
	return defaultPool.SolvePortfolio(ctx, g, sys, names, cfg)
}

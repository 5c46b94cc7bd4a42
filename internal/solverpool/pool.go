// Package solverpool is the concurrent solve service on top of the
// internal/engine registry: it accepts many scheduling requests at once,
// runs them across a bounded worker pool with per-request deadlines,
// memoizes the precomputed search Model of each (graph, system) instance by
// content digest, and offers a portfolio mode that races several engines on
// one instance, cancelling the losers as soon as any engine returns a
// proven-optimal result.
//
// The design follows the algorithm-portfolio practice of the optimal-
// scheduling literature (Orr & Sinnen race memory-light and memory-hungry
// searches over one shared state space; Akram, Maas & Sanders engineer one
// solver core with pluggable strategies): because every engine here solves
// the identical state-space formulation, any engine's proven optimum
// settles the instance for all of them.
//
// The pool is also the substrate of the network daemon (internal/server):
// a job hands its core.Progress to the solve through engine.Config, and
// every engine publishes its Stats there for a status endpoint to read
// live; Workers/InFlight/Stats expose the capacity and cache behaviour a
// health endpoint publishes.
package solverpool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/procgraph"
	"repro/internal/taskgraph"
)

// Request is one solve job: an instance plus the engine and configuration
// to run it under. Config.Timeout (and MaxExpanded) give the per-request
// budget; the batch context bounds every request collectively.
type Request struct {
	Graph  *taskgraph.Graph
	System *procgraph.System
	// Engine is the registry name; empty selects "astar".
	Engine string
	Config engine.Config
}

// Response pairs a Request's outcome with the engine that produced it.
// Exactly one of Result and Err is set.
type Response struct {
	Engine string
	Result *core.Result
	Err    error
}

// Stats counts the pool's model-cache behaviour.
type Stats struct {
	ModelsBuilt int64 // distinct (graph, system) digests compiled
	ModelHits   int64 // requests served from the cache
	Collisions  int64 // digest hits whose exact comparison failed (bypassed the cache)
}

// maxCachedModels bounds the memoization table so a long-running service
// streaming distinct instances does not grow without limit; eviction is
// arbitrary (a model is cheap to rebuild relative to any solve).
const maxCachedModels = 256

// Pool is a concurrent batch/portfolio solve service. The zero value is not
// usable; construct with New. A Pool is safe for concurrent use.
type Pool struct {
	workers  int
	inFlight atomic.Int64

	mu     sync.Mutex
	models map[modelKey]*modelEntry
	// keys short-cuts digest computation for pointer-identical instances —
	// the common case of one (graph, system) pair solved repeatedly.
	keys  map[ptrKey]modelKey
	stats Stats
}

// ptrKey identifies an instance by object identity for the digest
// fast path.
type ptrKey struct {
	g   *taskgraph.Graph
	sys *procgraph.System
}

// modelEntry caches one compiled model; built once under entry.once so
// concurrent requests for the same instance share the compilation. The
// instance it was built for is retained so digest hits can be confirmed
// exactly — a 64-bit collision must never serve the wrong model.
type modelEntry struct {
	g    *taskgraph.Graph
	sys  *procgraph.System
	once sync.Once
	m    *core.Model
	err  error
}

// New returns a pool running at most workers solves concurrently;
// workers < 1 selects GOMAXPROCS.
func New(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, models: map[modelKey]*modelEntry{}, keys: map[ptrKey]modelKey{}}
}

// Stats returns a snapshot of the model-cache counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Workers returns the pool's concurrency bound — how many solves SolveBatch
// runs at once, and the slot count a service scheduling jobs onto the pool
// should respect.
func (p *Pool) Workers() int { return p.workers }

// InFlight returns the number of solves currently executing (each portfolio
// entrant counts individually).
func (p *Pool) InFlight() int64 { return p.inFlight.Load() }

// Model returns the memoized compiled model for the instance, building it
// on first use. Models are immutable after construction, so one model is
// safely shared by every engine and every concurrent solve. A digest hit
// is confirmed by exact instance comparison; the (vanishing) collision
// case builds a fresh uncached model rather than serve the wrong one.
func (p *Pool) Model(g *taskgraph.Graph, sys *procgraph.System) (*core.Model, error) {
	pk := ptrKey{g: g, sys: sys}
	p.mu.Lock()
	key, known := p.keys[pk]
	p.mu.Unlock()
	if !known {
		key = instanceKey(g, sys) // content walk, outside the lock
	}
	p.mu.Lock()
	if !known {
		if len(p.keys) >= maxCachedModels {
			for k := range p.keys {
				delete(p.keys, k)
				break
			}
		}
		p.keys[pk] = key
	}
	e, ok := p.models[key]
	if !ok {
		if len(p.models) >= maxCachedModels {
			for k := range p.models {
				delete(p.models, k)
				break
			}
		}
		e = &modelEntry{g: g, sys: sys}
		p.models[key] = e
		p.stats.ModelsBuilt++
	} else if !sameInstance(e.g, e.sys, g, sys) {
		p.stats.Collisions++
		p.mu.Unlock()
		return core.NewModel(g, sys)
	} else {
		p.stats.ModelHits++
	}
	p.mu.Unlock()
	e.once.Do(func() { e.m, e.err = core.NewModel(e.g, e.sys) })
	return e.m, e.err
}

// Solve runs one request synchronously (through the same model cache).
func (p *Pool) Solve(ctx context.Context, req Request) Response {
	name := req.Engine
	if name == "" {
		name = "astar"
	}
	eng, err := engine.Lookup(name)
	if err != nil {
		return Response{Engine: name, Err: err}
	}
	if req.Graph == nil || req.System == nil {
		return Response{Engine: name, Err: fmt.Errorf("solverpool: request needs a graph and a system")}
	}
	m, err := p.Model(req.Graph, req.System)
	if err != nil {
		return Response{Engine: name, Err: err}
	}
	p.inFlight.Add(1)
	res, err := eng.Solve(ctx, m, req.Config)
	p.inFlight.Add(-1)
	return Response{Engine: name, Result: res, Err: err}
}

// SolveBatch runs every request across the pool's bounded workers and
// returns the responses in request order. Cancelling ctx makes the
// still-running and not-yet-started solves return promptly with
// Optimal=false (budget cutoffs, not errors).
func (p *Pool) SolveBatch(ctx context.Context, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	sem := make(chan struct{}, p.workers)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = p.Solve(ctx, reqs[i])
		}(i)
	}
	wg.Wait()
	return out
}

package solverpool

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/procgraph"
)

// TestExpandZeroAllocWithTelemetry is the tier-1 form of the
// BenchmarkExpandSteadyStateTelemetry gate: the duplicate-saturated
// expansion hot path, followed by the publication of its Stats into a job
// Progress (what every searcher does at its budget poll), must stay
// allocation-free while an obs sampler reads the Progress from another
// goroutine. If telemetry ever leaks an allocation into the search, this
// fails under plain `go test`.
func TestExpandZeroAllocWithTelemetry(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 24, CCR: 1.0, Seed: 7})
	m, err := core.NewModel(g, procgraph.Complete(4))
	if err != nil {
		t.Fatal(err)
	}
	var p core.Progress
	var stats core.Stats
	exp := m.NewExpander(core.Options{Progress: &p}, &stats)
	visited := core.NewVisited()
	var pool []*core.State
	collect := func(c *core.State) { pool = append(pool, c) }
	exp.Expand(core.Root(), visited, collect)
	for i := 0; i < len(pool) && len(pool) < 256; i++ {
		exp.Expand(pool[i], visited, collect)
	}
	if len(pool) == 0 {
		t.Fatal("no states to expand")
	}
	meter := p.Meter()
	stop := obs.StartSampler(context.Background(), &p, obs.DefaultSampleInterval, obs.NewRing(0))
	defer stop()
	discard := func(*core.State) {}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		exp.Expand(pool[i%len(pool)], visited, discard)
		meter.Publish(&stats, len(pool), 0, 0)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Expand and Publish with telemetry attached: %.1f allocs/op, want 0", allocs)
	}
	if got := p.Snapshot(); got.Expanded != stats.Expanded || got.Generated != stats.Generated {
		t.Fatalf("progress = %+v, want the expander's Stats (%d expanded, %d generated)", got, stats.Expanded, stats.Generated)
	}
}

// TestProgressGauges exercises the gauges two searchers publish into one
// Progress: the OPEN sizes sum, the incumbent is the smaller, the frontier
// only rises and never passes the incumbent, and Record overwrites all.
func TestProgressGauges(t *testing.T) {
	var p core.Progress
	a, b := p.Meter(), p.Meter()
	var sa, sb core.Stats
	sa.Expanded, sb.Expanded = 3, 4
	a.Publish(&sa, 5, 50, 30)
	b.Publish(&sb, 2, 60, 0)
	a.Publish(&sa, 1, 50, 20) // lower frontier must not regress the max
	if got, want := p.Snapshot(), (core.ProgressSnapshot{Expanded: 7, Incumbent: 50, BestF: 30, OpenLen: 3}); got != want {
		t.Fatalf("Snapshot() = %+v; want %+v", got, want)
	}
	b.Publish(&sb, 2, 40, 45) // a frontier above the incumbent is clamped to it
	if got := p.Snapshot(); got.Incumbent != 40 || got.BestF != 40 {
		t.Fatalf("incumbent, best_f = %d, %d; want 40, 40", got.Incumbent, got.BestF)
	}
	rec := core.ProgressSnapshot{Expanded: 9, Generated: 8, PrunedEquiv: 7, PrunedFTO: 6, Incumbent: 44, BestF: 44}
	p.Record(rec)
	if got := p.Snapshot(); got != rec {
		t.Fatalf("after Record: %+v; want %+v", got, rec)
	}
	if m := (*core.Progress)(nil).Meter(); m != nil {
		t.Fatal("a nil Progress must give a nil Meter")
	}
}

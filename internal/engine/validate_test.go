package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/procgraph"
)

// corruptEngine runs the A* search and then moves one task's start time
// off its schedule, so its outcome is not a feasible schedule.
func corruptEngine() *funcEngine {
	return &funcEngine{
		name:    "test-corrupt",
		section: "test",
		desc:    "A* with one start time corrupted after the search",
		search: func(m *core.Model, opt core.Options, cfg Config, s core.Start) (core.Outcome, error) {
			out, err := searchAStar(m, opt, cfg, s)
			if err != nil {
				return out, err
			}
			place := out.Best.Place
			last := 0
			for n := range place {
				if place[n].Start > place[last].Start {
					last = n
				}
			}
			place[last].Start--
			return out, nil
		},
	}
}

// RegisterCorruptEngine registers corruptEngine for the rest of the test
// and returns its name; the external tests use it to reach the engine
// through the daemon. The registry forgets it when the test ends, so the
// tests that run every registered engine never meet it.
func RegisterCorruptEngine(t testing.TB) string {
	e := corruptEngine()
	Register(e)
	t.Cleanup(func() {
		regMu.Lock()
		defer regMu.Unlock()
		delete(registry, e.name)
	})
	return e.name
}

// TestInvalidResultRejected solves the worked example with the corrupting
// engine: the registry boundary must refuse its result with an error that
// wraps ErrInvalidResult and names the engine, while the same search
// through astar passes.
func TestInvalidResultRejected(t *testing.T) {
	m, err := core.NewModel(gen.PaperExample(), procgraph.Ring(3))
	if err != nil {
		t.Fatal(err)
	}
	astar, err := Lookup("astar")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := astar.Solve(context.Background(), m, Config{}); err != nil {
		t.Fatalf("astar: %v", err)
	}
	e := corruptEngine()
	res, err := e.Solve(context.Background(), m, Config{})
	if res != nil || !errors.Is(err, ErrInvalidResult) || !strings.Contains(err.Error(), e.name) {
		t.Fatalf("corrupted result: got (%v, %v), want no result and an ErrInvalidResult naming %q", res, err, e.name)
	}
}

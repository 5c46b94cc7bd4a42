package engine_test

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/listsched"
	"repro/internal/procgraph"
)

// TestCallerUpperBound holds every engine that reads U (all but bnb) to a
// caller-supplied U on an instance whose list schedule (137) is far above
// its optimum (101), so the schedule held in reserve does not realize U.
// U = the optimum must still prove the optimum (the ε engines: within
// their proven factor); U = optimum − 1 admits no schedule, so the engine
// must return the list schedule, feasible and without a certificate.
func TestCallerUpperBound(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 7, CCR: 1, Seed: 6})
	sys := procgraph.Ring(3)
	ctx := context.Background()
	ref, err := engine.Solve(ctx, "astar", g, sys, engine.Config{})
	if err != nil || !ref.Optimal {
		t.Fatalf("reference astar: %+v, %v", ref, err)
	}
	opt := ref.Length
	list, err := listsched.UpperBound(g, sys)
	if err != nil || list <= opt {
		t.Fatalf("list schedule %d (%v) does not exceed the optimum %d", list, err, opt)
	}
	for _, name := range engine.Names() {
		if name == "bnb" {
			continue // takes no U (see Config.UpperBound)
		}
		res, err := engine.Solve(ctx, name, g, sys, engine.Config{UpperBound: opt})
		if err != nil {
			t.Fatalf("%s, U=%d: %v", name, opt, err)
		}
		if res.BoundFactor < 1 || float64(res.Length) > res.BoundFactor*float64(opt) {
			t.Errorf("%s, U=%d: length %d with bound factor %g, want a proven result within it of %d",
				name, opt, res.Length, res.BoundFactor, opt)
		}
		if name != "aeps" && name != "native-eps" && (!res.Optimal || res.Length != opt) {
			t.Errorf("%s, U=%d: length %d optimal=%v, want %d proven", name, opt, res.Length, res.Optimal, opt)
		}

		res, err = engine.Solve(ctx, name, g, sys, engine.Config{UpperBound: opt - 1})
		if err != nil {
			t.Fatalf("%s, U=%d: %v", name, opt-1, err)
		}
		if res.Optimal || res.BoundFactor != 0 || res.Length != list {
			t.Errorf("%s, U=%d: length %d optimal=%v bound factor %g, want the list schedule %d uncertified",
				name, opt-1, res.Length, res.Optimal, res.BoundFactor, list)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Errorf("%s, U=%d: %v", name, opt-1, err)
		}
	}
}

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
	reserve, err := listsched.UpperBound(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	list := reserve.Length
	if list <= opt {
		t.Fatalf("reserve schedule %d does not exceed the optimum %d", list, opt)
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

// TestCutOffNoLongerThanReserve cuts every engine off after 500 expansions
// on a CCR-10 instance whose reserve schedule (240, all tasks on one PE)
// is half the schedule bnb holds when cut off (488). bnb takes no U, so its
// search does not prune against the reserve; Run must still return the
// reserve, as it does for the engines that prune against it.
func TestCutOffNoLongerThanReserve(t *testing.T) {
	g := gen.MustRandom(gen.RandomConfig{V: 8, CCR: 10, Seed: 4})
	sys := procgraph.Complete(2)
	reserve, err := listsched.UpperBound(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range engine.Names() {
		res, err := engine.Solve(context.Background(), name, g, sys, engine.Config{MaxExpanded: 500})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Length > reserve.Length {
			t.Errorf("%s: cut-off length %d, longer than the reserve schedule %d", name, res.Length, reserve.Length)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

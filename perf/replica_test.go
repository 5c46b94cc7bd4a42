package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestReplicaMatchesEngine checks that the traced loop runs the same search
// as engine.Solve — same expansions, length, proof and guarantee — for the
// exact and the ε-bounded engine, so the per-layer numbers describe the
// search the end-to-end numbers measured.
func TestReplicaMatchesEngine(t *testing.T) {
	for _, sp := range []searchSpec{paperExact, paperApprox} {
		corpus, err := sp.corpus(7)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sp.config()
		cfg.MaxExpanded = 2_000
		layers := newSearchLayers(time.Now())
		proved, cut := 0, 0
		for _, x := range corpus[:27] {
			want, err := engine.Solve(context.Background(), sp.engine, x.g, x.sys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tracedSolve(layers, x.label, sp.engine, x.g, x.sys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if msg := sameSearch(want, got); msg != "" {
				t.Errorf("%s: %s", x.label, msg)
			}
			if got.BoundFactor > 0 {
				proved++
			} else {
				cut++
			}
		}
		// The sample must exercise both ways a search ends.
		if proved == 0 || cut == 0 {
			t.Errorf("%s: %d proved and %d cut-off solves; want some of each", sp.name, proved, cut)
		}
		if layers.Expand.Count != layers.expanded {
			t.Errorf("%s: %d timed expansions, %d counted", sp.name, layers.Expand.Count, layers.expanded)
		}
	}
}

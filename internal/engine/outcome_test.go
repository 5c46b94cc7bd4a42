package engine_test

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
)

// outcomeFile pins what every deterministic engine returns on the golden
// corpus: length, certificate and every search counter but wall time.
const outcomeFile = "testdata/outcomes.txt"

// outcomeCap bounds every pinned solve. The expansion cap is deterministic,
// so a cell that needs more expansions is pinned as a cut-off outcome (its
// incumbent and counters at the cap), which keeps the test to a few
// seconds while most cells still finish with a certificate.
const outcomeCap = 2000

// outcomeRuns are the engine configurations pinned in outcomeFile: astar
// under every pruning combo, the other deterministic engines under the
// default combo, and every one of them once more cut off after a few
// expansions (on the v=9 cells only) so the list-scheduling fallback is
// pinned too. native is left out: its thread order varies from run to
// run, and TestNativeGoldenCorpus covers it.
func outcomeRuns() []struct {
	name, engine string
	cfg          engine.Config
	cutOnly      bool
} {
	type run = struct {
		name, engine string
		cfg          engine.Config
		cutOnly      bool
	}
	var runs []run
	for _, combo := range goldenCombos() {
		cfg := combo.cfg
		cfg.MaxExpanded = outcomeCap
		runs = append(runs, run{"astar/" + combo.name, "astar", cfg, false})
	}
	rest := []run{
		{"aeps/eps0.2", "aeps", engine.Config{Epsilon: 0.2, MaxExpanded: outcomeCap}, false},
		{"dfbb", "dfbb", engine.Config{MaxExpanded: outcomeCap}, false},
		{"ida", "ida", engine.Config{MaxExpanded: outcomeCap}, false},
		{"bnb", "bnb", engine.Config{MaxExpanded: outcomeCap}, false},
		{"parallel/1", "parallel", engine.Config{PPEs: 1, MaxExpanded: outcomeCap}, false},
		{"parallel/4", "parallel", engine.Config{PPEs: 4, MaxExpanded: outcomeCap}, false},
	}
	runs = append(runs, rest...)
	runs = append(runs, run{"astar/cut", "astar", engine.Config{MaxExpanded: 5}, true})
	for _, r := range rest {
		r.name += "/cut"
		r.cfg.MaxExpanded = 5
		r.cutOnly = true
		runs = append(runs, r)
	}
	return runs
}

// outcomeHeader names the columns of outcomeFile; a cell is written
// v/seed/ccr/system.
const outcomeHeader = "# run cell length optimal bound_factor expanded generated pruned_iso pruned_equiv pruned_fto pruned_ub pruned_bound duplicates max_open visited rounds states_shared critical_work upper_bound static_lb"

// outcomeLine renders one solve's outcome for outcomeFile.
func outcomeLine(run, cell string, r *core.Result) string {
	s := r.Stats
	return fmt.Sprintf("%s %s %d %t %g %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d",
		run, cell, r.Length, r.Optimal, r.BoundFactor,
		s.Expanded, s.Generated, s.PrunedIso, s.PrunedEquiv, s.PrunedFTO, s.PrunedUB, s.PrunedBound,
		s.Duplicates, s.MaxOpen, s.VisitedSize, s.Rounds, s.StatesShared, s.CriticalWork, s.UpperBound, s.StaticLB)
}

// TestEngineOutcomes holds every deterministic engine to the outcomes
// recorded in outcomeFile: a refactor of the engine layer must leave each
// search exactly as it was, down to the last counter. On a mismatch the
// current outcomes are written to a temporary file; replace outcomeFile
// with it only when a change is meant to alter the search.
func TestEngineOutcomes(t *testing.T) {
	want, err := os.ReadFile(outcomeFile)
	if err != nil {
		t.Fatal(err)
	}
	runs := outcomeRuns()
	got := []string{outcomeHeader}
	for _, c := range goldenCorpus() {
		g := gen.MustRandom(gen.RandomConfig{V: c.v, CCR: c.ccr, Seed: c.seed})
		cell := fmt.Sprintf("%d/%d/%g/%s", c.v, c.seed, c.ccr, c.sys.Name())
		for _, r := range runs {
			if r.cutOnly && c.v != 9 {
				continue
			}
			res, err := engine.Solve(context.Background(), r.engine, g, c.sys, r.cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", r.name, cell, err)
			}
			got = append(got, outcomeLine(r.name, cell, res))
		}
	}

	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	diffs := 0
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			if diffs++; diffs <= 10 {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
			}
		}
	}
	if diffs == 0 {
		return
	}
	t.Errorf("%d of %d lines differ from %s", diffs, len(got), outcomeFile)
	f, err := os.CreateTemp("", "outcomes-*.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, line := range got {
		fmt.Fprintln(w, line)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	t.Logf("current outcomes written to %s", f.Name())
}

package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/taskgraph"
)

// effortJob is a budgeted job on which every engine does real work: a
// v=12 CCR 0.1 instance on complete:3 under the load heuristic, cut at
// 3,000 expansions.
func effortJob(t *testing.T, engines ...string) SubmitRequest {
	t.Helper()
	var buf bytes.Buffer
	if err := taskgraph.Format(&buf, gen.MustRandom(gen.RandomConfig{V: 12, CCR: 0.1, Seed: 3})); err != nil {
		t.Fatal(err)
	}
	return SubmitRequest{
		GraphText: buf.String(),
		System:    json.RawMessage(`"complete:3"`),
		Engines:   engines,
		Config:    JobConfig{HFunc: "load", MaxExpanded: 3000, Workers: 2},
	}
}

func getResult(t *testing.T, base, id string) JobResult {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: got %d", id, resp.StatusCode)
	}
	var res JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

// engineMetrics reads the icpp98_engine_*_total counters of one engine
// selection from /metrics.
func engineMetrics(t *testing.T, base, key string) JobProgress {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out JobProgress
	fields := map[string]*int64{
		"expanded": &out.Expanded, "generated": &out.Generated,
		"pruned_equiv": &out.PrunedEquiv, "pruned_fto": &out.PrunedFTO,
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		for name, dst := range fields {
			prefix := fmt.Sprintf("icpp98_engine_%s_total{engine=%q} ", name, key)
			if v, ok := strings.CutPrefix(sc.Text(), prefix); ok {
				fmt.Sscan(v, dst)
			}
		}
	}
	return out
}

// countersOf is the part of a result's Stats the job progress reports.
func countersOf(s core.Stats) JobProgress {
	return JobProgress{Expanded: s.Expanded, Generated: s.Generated, PrunedEquiv: s.PrunedEquiv, PrunedFTO: s.PrunedFTO}
}

// TestProgressMatchesResultStats: for every registered engine, a finished
// job's live progress counters and the daemon's per-engine /metrics
// totals are the engine's own Stats — one count, whichever surface reads
// it.
func TestProgressMatchesResultStats(t *testing.T) {
	for _, name := range engine.Names() {
		if strings.HasPrefix(name, "test-") {
			continue
		}
		t.Run(name, func(t *testing.T) {
			_, base := newTestServer(t, Config{Workers: 1})
			sub := postJob(t, base, effortJob(t, name))
			st := waitTerminal(t, base, sub.ID)
			if st.State != StateDone {
				t.Fatalf("state = %s (error %q)", st.State, st.Error)
			}
			want := countersOf(getResult(t, base, sub.ID).Stats)
			if want.Expanded == 0 {
				t.Fatal("the engine expanded nothing")
			}
			got := st.Progress
			got.ElapsedMS = 0
			if got != want {
				t.Errorf("status progress = %+v, want result.stats %+v", got, want)
			}
			if got := engineMetrics(t, base, name); got != want {
				t.Errorf("/metrics totals = %+v, want result.stats %+v", got, want)
			}
		})
	}
}

// TestPortfolioProgressSumsEntrants: a portfolio job's progress counts
// every entrant's effort — the winner's Stats plus each loser's expanded.
func TestPortfolioProgressSumsEntrants(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1})
	sub := postJob(t, base, effortJob(t, "astar", "dfbb", "bnb"))
	st := waitTerminal(t, base, sub.ID)
	if st.State != StateDone {
		t.Fatalf("state = %s (error %q)", st.State, st.Error)
	}
	res := getResult(t, base, sub.ID)
	if len(res.Losers) != 2 {
		t.Fatalf("losers = %v (errs %v), want 2", res.Losers, res.Errs)
	}
	want := res.Stats.Expanded
	for name, l := range res.Losers {
		if l.Expanded == 0 {
			t.Errorf("loser %s expanded nothing", name)
		}
		want += l.Expanded
	}
	if st.Progress.Expanded != want {
		t.Fatalf("progress.expanded = %d, want winner %s's %d plus the losers' = %d",
			st.Progress.Expanded, res.Engine, res.Stats.Expanded, want)
	}
}

// TestDfbbTelemetryReportsEffort: the depth-first engines publish their
// Stats like the best-first ones, so a finished dfbb job's telemetry
// summary carries its result's expanded count.
func TestDfbbTelemetryReportsEffort(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1})
	sub := postJob(t, base, effortJob(t, "dfbb"))
	if st := waitTerminal(t, base, sub.ID); st.State != StateDone {
		t.Fatalf("state = %s (error %q)", st.State, st.Error)
	}
	want := getResult(t, base, sub.ID).Stats.Expanded
	tr := getTrace(t, base, sub.ID)
	if tr.Telemetry == nil {
		t.Fatal("no telemetry on a job that searched")
	}
	if got := tr.Telemetry.Summary.Expanded; got != want || want == 0 {
		t.Fatalf("telemetry summary expanded = %d, want result.stats.expanded %d (> 0)", got, want)
	}
}

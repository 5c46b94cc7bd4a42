package core_test

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/procgraph"
	"repro/internal/trace"
)

// solveOutcome is everything a solve reports except its wall time.
type solveOutcome struct {
	Length      int32
	Optimal     bool
	BoundFactor float64
	Stats       core.Stats
	Place       string
}

func solveOutcomeOf(t testing.TB, m *core.Model, opt core.Options) solveOutcome {
	res, err := core.SolveModel(m, opt)
	if err != nil {
		t.Error(err)
		return solveOutcome{}
	}
	res.Stats.WallTime = 0
	return solveOutcome{
		Length:      res.Length,
		Optimal:     res.Optimal,
		BoundFactor: res.BoundFactor,
		Stats:       res.Stats,
		Place:       fmt.Sprint(res.Schedule.Place),
	}
}

func mustModel(t testing.TB, v int, ccr float64, seed uint64, sys *procgraph.System) *core.Model {
	t.Helper()
	m, err := core.NewModel(gen.MustRandom(gen.RandomConfig{V: v, CCR: ccr, Seed: seed}), sys)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// renderTree draws a recorded search tree both ways the trace package can.
func renderTree(t *testing.T, rec *trace.Recorder) string {
	t.Helper()
	var b strings.Builder
	if err := rec.WriteASCII(&b); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSolveReusesBuffersCleanly solves a small instance, a large one, the
// large one again under a trace.Recorder, the small one again and the
// large one again. Each solve takes the arena, visited slots and OPEN
// storage (the exact heap, or the FocalQueue's per-depth heaps) the one
// before released, and must carry nothing over: the small solves agree
// exactly, and so do the large ones, traced or not. The recorded tree
// must read the same after the small solve has reused its arena. Under
// the exact and the ε search. The collector is off and one P runs the
// solves, so the pools hand each solve exactly what the one before
// released.
func TestSolveReusesBuffersCleanly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(256 << 20)) // a runaway solve still meets a collector
	small := mustModel(t, 8, 0.1, 1, procgraph.Complete(3))
	large := mustModel(t, 12, 1, 6, procgraph.Ring(3))
	for _, opt := range []core.Options{{}, {Epsilon: 0.2}} {
		first := solveOutcomeOf(t, small, opt)
		big := solveOutcomeOf(t, large, opt)
		if n := big.Stats.VisitedSize; n <= core.VisitedMinSize || n <= 2*core.ArenaSlabSize {
			t.Fatalf("eps=%g: large solve visited %d states; it must outgrow a fresh table and fill several arena slabs", opt.Epsilon, n)
		}
		rec := trace.NewRecorder(large.G)
		traced := opt
		traced.Tracer = rec
		if got := solveOutcomeOf(t, large, traced); !reflect.DeepEqual(got, big) {
			t.Errorf("eps=%g: traced large solve differs:\nuntraced: %+v\ntraced:   %+v", opt.Epsilon, big, got)
		}
		tree := renderTree(t, rec)
		if again := solveOutcomeOf(t, small, opt); !reflect.DeepEqual(first, again) {
			t.Errorf("eps=%g: small solve after a large one differs:\nfirst: %+v\nagain: %+v", opt.Epsilon, first, again)
		}
		if after := renderTree(t, rec); after != tree {
			t.Errorf("eps=%g: the recorded tree changed when a later solve reused its arena", opt.Epsilon)
		}
		if big2 := solveOutcomeOf(t, large, opt); !reflect.DeepEqual(big, big2) {
			t.Errorf("eps=%g: large solve after the small one differs:\nfirst: %+v\nagain: %+v", opt.Epsilon, big, big2)
		}
	}
}

// TestConcurrentSolvesMatchSerial runs SolveModel from several goroutines
// at once, so pooled buffers pass between concurrent solves; every result
// must equal the serial one. The options cover the exact and the ε search
// (the astar and aeps engines), each with the paper's and the load-aware
// heuristic.
func TestConcurrentSolvesMatchSerial(t *testing.T) {
	models := []*core.Model{
		mustModel(t, 8, 0.1, 1, procgraph.Complete(3)),
		mustModel(t, 9, 1, 3, procgraph.Complete(3)),
		mustModel(t, 12, 1, 6, procgraph.Ring(3)),
	}
	opts := []core.Options{{}, {Epsilon: 0.2}, {HFunc: core.HLoad}, {Epsilon: 0.2, HFunc: core.HLoad}}
	want := make([][]solveOutcome, len(models))
	for i, m := range models {
		for _, opt := range opts {
			want[i] = append(want[i], solveOutcomeOf(t, m, opt))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for k := range models {
					i := (k + w) % len(models)
					for j, opt := range opts {
						if got := solveOutcomeOf(t, models[i], opt); !reflect.DeepEqual(got, want[i][j]) {
							t.Errorf("worker %d model %d options %+v: concurrent %+v, serial %+v", w, i, opt, got, want[i][j])
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

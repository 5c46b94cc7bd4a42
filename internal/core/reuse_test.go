package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/gen"
	"repro/internal/heapx"
	"repro/internal/procgraph"
)

// TestStateSize pins the search state's layout: OPEN orders, and the
// visited table and arena hold, millions of these.
func TestStateSize(t *testing.T) {
	if got := unsafe.Sizeof(State{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(State{}) = %d, want 48", got)
	}
}

// solveOutcome is everything a solve reports except its wall time.
type solveOutcome struct {
	Length      int32
	Optimal     bool
	BoundFactor float64
	Stats       Stats
	Place       string
}

func solveOutcomeOf(t testing.TB, m *Model, opt Options) solveOutcome {
	res, err := SolveModel(m, opt)
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

func mustModel(t testing.TB, v int, ccr float64, seed uint64, sys *procgraph.System) *Model {
	t.Helper()
	m, err := NewModel(gen.MustRandom(gen.RandomConfig{V: v, CCR: ccr, Seed: seed}), sys)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSolveReusesBuffersCleanly solves a small instance, a large one and
// the small one again: the OPEN and visited buffers the first two solves
// release are reused by the next, and must carry nothing over. Both small
// solves must agree exactly, under the exact and the ε search.
func TestSolveReusesBuffersCleanly(t *testing.T) {
	small := mustModel(t, 8, 0.1, 1, procgraph.Complete(3))
	large := mustModel(t, 12, 1, 6, procgraph.Ring(3))
	for _, opt := range []Options{{}, {Epsilon: 0.2}} {
		first := solveOutcomeOf(t, small, opt)
		if big := solveOutcomeOf(t, large, opt); big.Stats.VisitedSize <= visitedMinSize {
			t.Fatalf("eps=%g: large solve visited %d states; it must outgrow a fresh table", opt.Epsilon, big.Stats.VisitedSize)
		}
		if again := solveOutcomeOf(t, small, opt); !reflect.DeepEqual(first, again) {
			t.Errorf("eps=%g: small solve after a large one differs:\nfirst: %+v\nagain: %+v", opt.Epsilon, first, again)
		}
	}
}

// TestConcurrentSolvesMatchSerial runs SolveModel from several goroutines
// at once, so pooled buffers pass between concurrent solves; every result
// must equal the serial one.
func TestConcurrentSolvesMatchSerial(t *testing.T) {
	models := []*Model{
		mustModel(t, 8, 0.1, 1, procgraph.Complete(3)),
		mustModel(t, 9, 1, 3, procgraph.Complete(3)),
		mustModel(t, 12, 1, 6, procgraph.Ring(3)),
	}
	opts := []Options{{}, {Epsilon: 0.2}, {HFunc: HLoad}}
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

// TestVisitedGrowsThroughItsOwnSizes pins the size classes: after a large
// table has been released, a new table still starts at visitedMinSize and
// doubles exactly as a freshly allocated one would, so a small solve
// never takes, nor clears, a larger solve's slot array. Every array the
// table grew through goes back to its pool empty.
func TestVisitedGrowsThroughItsOwnSizes(t *testing.T) {
	putSlots(make([]visEntry, reuseMaxSlots))
	putSlots(make([]visEntry, 4*visitedMinSize))
	vt := NewVisited()
	states := make([]State, 3*visitedMinSize)
	want := visitedMinSize
	for i := range states {
		if vt.n*4 >= want*3 {
			want *= 2
		}
		states[i].sig = uint64(i) * 0x9e3779b97f4a7c15
		if !vt.Add(&states[i]) {
			t.Fatalf("state %d rejected as a duplicate", i)
		}
		if len(vt.entries) != want {
			t.Fatalf("after %d inserts the table has %d slots, want %d", i+1, len(vt.entries), want)
		}
	}
	releaseBuffers(NewBestFirstQueue(), vt)
	for n := visitedMinSize; n <= want; n *= 2 {
		for i, e := range takeSlots(n) {
			if e != (visEntry{}) {
				t.Fatalf("pooled %d-slot array holds a state at slot %d", n, i)
			}
		}
	}
}

// BenchmarkSmallSolveAfterLarge times a solve of the 9-task paper example
// right after a solve near the pools' cap has released its buffers: the
// small solve must cost what it costs alone, not the clearing of the
// large solve's slot array.
func BenchmarkSmallSolveAfterLarge(b *testing.B) {
	m, err := NewModel(gen.PaperExample(), procgraph.Ring(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		large := &BestFirstQueue{h: heapx.NewWithCapacity(Less, reuseMaxSlots)}
		releaseBuffers(large, &Visited{entries: make([]visEntry, reuseMaxSlots)})
		b.StartTimer()
		if _, err := SolveModel(m, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

package core

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/gen"
	"repro/internal/procgraph"
)

// TestStateSize pins the search state's layout: OPEN orders, and the
// visited table and arena hold, millions of these.
func TestStateSize(t *testing.T) {
	if got := unsafe.Sizeof(State{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(State{}) = %d, want 48", got)
	}
}

// TestWarmSolveReusesEveryBuffer solves one instance repeatedly with the
// collector off, so the pools keep what each solve hands back: once warm, a
// solve must allocate less than one arena slab. Its arena, visited slots
// and OPEN storage all come from the pools; what is left is the
// per-solve bookkeeping (list schedule, expander scratch, result). One P
// keeps every pooled buffer where the next Get looks first.
func TestWarmSolveReusesEveryBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// OPEN peaks near 82k states exact and 69k under ε, and each solve
	// keeps over 170k states, in over 100 arena slabs: every kind of
	// buffer is large.
	m, err := NewModel(gen.MustRandom(gen.RandomConfig{V: 12, CCR: 10, Seed: 3}), procgraph.Ring(3))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(256 << 20)) // a runaway solve still meets a collector
	slab := uint64(arenaSlabSize * unsafe.Sizeof(State{}))
	for _, opt := range []Options{{}, {Epsilon: 0.2}} {
		res, err := SolveModel(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.VisitedSize <= 100*arenaSlabSize {
			t.Fatalf("eps=%g: the solve keeps %d states; it must fill many arena slabs", opt.Epsilon, res.Stats.VisitedSize)
		}
		const solves = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < solves; i++ {
			if _, err := SolveModel(m, opt); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / solves; per >= slab {
			t.Errorf("eps=%g: a warm solve allocates %d B, want less than one %d B arena slab", opt.Epsilon, per, slab)
		}
	}
}

// TestVisitedGrowsThroughItsOwnSizes pins the size classes: after a large
// table has been released, a new table still starts at visitedMinSize and
// doubles exactly as a freshly allocated one would, so a small solve
// never takes, nor clears, a larger solve's slot array. Every array the
// table grew through goes back to its pool empty.
func TestVisitedGrowsThroughItsOwnSizes(t *testing.T) {
	visitedSlots.put(make([]visEntry, reuseMaxSlots))
	visitedSlots.put(make([]visEntry, 4*visitedMinSize))
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
	releaseBuffers(NewBestFirstQueue(), vt, NewArena())
	for n := visitedMinSize; n <= want; n *= 2 {
		for i, e := range visitedSlots.take(n) {
			if e != (visEntry{}) {
				t.Fatalf("pooled %d-slot array holds a state at slot %d", n, i)
			}
		}
	}
}

// TestOpenHeapGrowsThroughPooledArrays checks the OPEN side of the size
// classes: a heap takes openMinSize entries first and doubles, and every
// array it grew through, and the last one after some pops, goes back to
// its pool with no state left in it.
func TestOpenHeapGrowsThroughPooledArrays(t *testing.T) {
	q := NewBestFirstQueue()
	states := make([]State, 5*openMinSize)
	want := openMinSize
	for i := range states {
		if i == want {
			want *= 2
		}
		states[i] = State{f: int32(i % 7), sig: uint64(i)}
		q.Push(&states[i])
		if c := cap(q.h.items); c != want {
			t.Fatalf("after %d pushes the heap holds %d entries, want %d", i+1, c, want)
		}
	}
	for i := 0; i < len(states)/2; i++ {
		q.Pop()
	}
	releaseBuffers(q, &Visited{}, NewArena())
	for n := openMinSize; n <= want; n *= 2 {
		for i, e := range openEntries.take(n) {
			if e != (openEntry{}) {
				t.Fatalf("pooled %d-entry array holds a state at entry %d", n, i)
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
		large := &BestFirstQueue{h: openHeap{items: make([]openEntry, 0, reuseMaxSlots)}}
		releaseBuffers(large, &Visited{entries: make([]visEntry, reuseMaxSlots)}, NewArena())
		b.StartTimer()
		if _, err := SolveModel(m, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

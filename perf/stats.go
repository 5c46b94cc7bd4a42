package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the p-quantile of xs by the nearest-rank rule (the
// smallest value with at least p of the sample at or below it); 0 for an
// empty sample. xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio returns num/den, or 0 when den is 0 (a layer the workload did not
// exercise).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hist aggregates the durations of one kind of call without keeping them:
// a count, a sum and a log2 histogram (bucket b holds durations d with
// bits.Len64(d) == b, i.e. 2^(b-1) <= d < 2^b nanoseconds).
type hist struct {
	Count   int64     `json:"count"`
	SumNS   int64     `json:"sum_ns"`
	Buckets [64]int64 `json:"log2_buckets"`
}

func (h *hist) add(d time.Duration) {
	ns := max(int64(d), 0)
	h.Count++
	h.SumNS += ns
	h.Buckets[bits.Len64(uint64(ns))]++
}

// meanNS is the mean duration in nanoseconds.
func (h *hist) meanNS() float64 { return ratio(float64(h.SumNS), float64(h.Count)) }

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapBytes is the heap occupied by live and not yet collected objects.
func heapBytes() uint64 { return readMetric("/memory/classes/heap/objects:bytes") }

// allocBytes is the cumulative count of bytes the process has allocated on
// the heap. Unlike the heap's size at any moment, which depends on when the
// collector last ran, the bytes one operation allocates barely vary from
// run to run.
func allocBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// kibPer is the KiB allocated since start, per operation.
func kibPer(start uint64, ops int) float64 {
	return ratio(float64(allocBytes()-start)/1024, float64(ops))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// warmupShare is the part of the run time every workload spends keeping
// all CPUs busy before it measures. On a virtual machine that sat idle,
// the first seconds of load run markedly slower — and whether they do
// depends on what the host did last — so without it one workload's latency
// tail came out in two clusters run to run. The warm-up runs no workload
// code: it must not change the state (such as the daemon's job count) that
// the timed phases then see.
const warmupShare = 0.1

var probeSink atomic.Uint64

// probeRound is one round of the warm-up: random writes into a table larger
// than the CPU caches, the access pattern of the search's visited table.
func probeRound(table []uint64, x uint64) uint64 {
	mask := uint64(len(table) - 1)
	for k := 0; k < 1<<16; k++ {
		x = splitmix64(x)
		table[x&mask] ^= x
	}
	return x
}

// startMeasuring warms every CPU for d with probe rounds and returns the
// median round in milliseconds: a reading of the host's speed, recorded with
// the run. It runs before the timed set-ups; each of them, and the timed
// loop after them, starts with a collection, so every one starts from the
// same heap and the collector's pacing does not depend on what happened to
// be allocated last.
func startMeasuring(d time.Duration) float64 {
	end := time.Now().Add(d)
	var mu sync.Mutex
	var rounds []float64
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			table := make([]uint64, 1<<21)
			x := uint64(i)
			var mine []float64
			for time.Now().Before(end) {
				t0 := time.Now()
				x = probeRound(table, x)
				mine = append(mine, ms(time.Since(t0)))
			}
			probeSink.Add(x)
			mu.Lock()
			rounds = append(rounds, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return quantile(rounds, 0.5)
}

// splitmix64 derives independent per-instance seeds from the workload
// seed, so every instance is reproducible in isolation.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// deriveSeed mixes the workload seed with the parts of an instance's
// identity.
func deriveSeed(seed uint64, parts ...uint64) uint64 {
	h := splitmix64(seed)
	for _, p := range parts {
		h = splitmix64(h ^ p)
	}
	return h
}

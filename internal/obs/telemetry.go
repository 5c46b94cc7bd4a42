package obs

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
)

// DefaultSampleInterval is the telemetry ticker cadence when the caller
// does not choose one: 4 samples/sec resolves incumbent convergence on
// any search longer than a second while costing a few atomic loads per
// 250ms — unmeasurable next to an expansion rate in the millions/sec.
const DefaultSampleInterval = 250 * time.Millisecond

// DefaultRingCap bounds one job's sample ring: 240 samples is one minute
// at the default cadence, ~14 KiB. Longer searches overwrite the oldest
// samples, so the ring always holds the trailing window — the part the
// "why is this job slow" question is about — plus Total for the lifetime
// count.
const DefaultRingCap = 240

// Sample is one instant of a running search: the cumulative counters the
// engines publish atomically, plus the rate computed from the previous
// sample. Gauges are zero when the engine does not publish them (see
// core.ProgressSnapshot: the depth-first engines and bnb report no
// frontier).
type Sample struct {
	// OffsetMS is the time since sampling started.
	OffsetMS int64 `json:"offset_ms"`
	// Expanded/Generated/PrunedEquiv/PrunedFTO mirror the job's live
	// progress counters, cumulative.
	Expanded    int64 `json:"expanded"`
	Generated   int64 `json:"generated"`
	PrunedEquiv int64 `json:"pruned_equiv,omitempty"`
	PrunedFTO   int64 `json:"pruned_fto,omitempty"`
	// ExpandedPerSec is the expansion rate over the preceding interval.
	ExpandedPerSec float64 `json:"expanded_per_sec"`
	// Incumbent is the best complete schedule length found so far (the
	// upper bound the search prunes against); 0 before the first one.
	Incumbent int32 `json:"incumbent,omitempty"`
	// BestF is the largest admissible f popped so far — the search's
	// proven lower-bound frontier. Convergence is the two curves meeting.
	BestF int32 `json:"best_f,omitempty"`
	// OpenLen is the live OPEN-list population summed across workers.
	OpenLen int64 `json:"open_len,omitempty"`
}

// Ring is the fixed-size telemetry buffer of one job. Appends come from a
// single sampler goroutine; snapshots from any number of HTTP handlers.
type Ring struct {
	mu    sync.Mutex
	buf   []Sample
	next  int // buf index the next append lands in
	total int // lifetime appends, total > len(buf) means wrapped
}

// NewRing builds a ring holding the trailing cap samples; cap < 1 selects
// DefaultRingCap.
func NewRing(cap int) *Ring {
	if cap < 1 {
		cap = DefaultRingCap
	}
	return &Ring{buf: make([]Sample, 0, cap)}
}

// Append records one sample, overwriting the oldest once full.
func (r *Ring) Append(s Sample) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next] = s
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the retained samples oldest-first plus the lifetime
// sample count (total > len(samples) means the ring wrapped and the
// leading samples were overwritten).
func (r *Ring) Snapshot() (samples []Sample, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		samples = append(samples, r.buf...)
	} else {
		samples = append(samples, r.buf[r.next:]...)
		samples = append(samples, r.buf[:r.next]...)
	}
	return samples, r.total
}

// Summary is the roll-up of a ring for slow-job logs: the final counters
// plus the convergence markers an operator greps for.
type Summary struct {
	Samples        int     `json:"samples"`
	Expanded       int64   `json:"expanded"`
	Generated      int64   `json:"generated"`
	PeakRate       float64 `json:"peak_expanded_per_sec"`
	FinalRate      float64 `json:"final_expanded_per_sec"`
	FinalIncumbent int32   `json:"incumbent,omitempty"`
	FinalBestF     int32   `json:"best_f,omitempty"`
	PeakOpen       int64   `json:"peak_open_len,omitempty"`
}

// Summary rolls the retained samples up.
func (r *Ring) Summary() Summary {
	samples, total := r.Snapshot()
	out := Summary{Samples: total}
	for _, s := range samples {
		if s.ExpandedPerSec > out.PeakRate {
			out.PeakRate = s.ExpandedPerSec
		}
		if s.OpenLen > out.PeakOpen {
			out.PeakOpen = s.OpenLen
		}
	}
	if n := len(samples); n > 0 {
		last := samples[n-1]
		out.Expanded = last.Expanded
		out.Generated = last.Generated
		out.FinalRate = last.ExpandedPerSec
		out.FinalIncumbent = last.Incumbent
		out.FinalBestF = last.BestF
	}
	return out
}

// StartSampler launches the ticker goroutine that samples src into ring
// (loading its atomics from outside the search, so sampling never touches
// the expansion hot path) every interval (<= 0 selects DefaultSampleInterval) until ctx ends; the
// returned stop function cancels it and waits for the final sample, so
// the ring is quiescent — and holds the search's closing counters — once
// stop returns. One sampler per job; the ring is sized independently.
func StartSampler(ctx context.Context, src *core.Progress, interval time.Duration, ring *Ring) (stop func()) {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	sctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		var prev Sample
		sample := func() {
			p := src.Snapshot()
			s := Sample{
				OffsetMS: time.Since(start).Milliseconds(),
				Expanded: p.Expanded, Generated: p.Generated, PrunedEquiv: p.PrunedEquiv, PrunedFTO: p.PrunedFTO,
				Incumbent: p.Incumbent, BestF: p.BestF, OpenLen: p.OpenLen,
			}
			if dt := s.OffsetMS - prev.OffsetMS; dt > 0 {
				s.ExpandedPerSec = float64(s.Expanded-prev.Expanded) / (float64(dt) / 1000)
			}
			ring.Append(s)
			prev = s
		}
		for {
			select {
			case <-sctx.Done():
				// The closing sample makes short solves observable: even a
				// job faster than one interval lands its final counters.
				sample()
				return
			case <-ticker.C:
				sample()
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

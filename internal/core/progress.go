package core

import "sync/atomic"

// Progress is the live view of a running search, read from other
// goroutines: a job's status endpoint, its telemetry sampler, /metrics and
// a cluster worker's reporter. Its counters are the engines' own Stats —
// every searcher publishes the growth of its Stats through a Meter where
// it polls its budget, and once more when it stops — so a finished
// search's Progress equals its Result.Stats in Expanded, Generated,
// PrunedEquiv and PrunedFTO.
//
// One Progress may be fed by several searchers at once (a portfolio's
// entrants, a multi-worker engine's workers); the counters and the OPEN
// gauge then sum over them, the incumbent is the smallest any of them
// holds, and the frontier the largest any best-first one has proven.
type Progress struct {
	expanded    atomic.Int64
	generated   atomic.Int64
	prunedEquiv atomic.Int64
	prunedFTO   atomic.Int64
	incumbent   atomic.Int32
	bestF       atomic.Int32
	open        atomic.Int64
}

// ProgressSnapshot is one reading of a Progress; its JSON form is the one
// a cluster worker reports.
type ProgressSnapshot struct {
	Expanded    int64 `json:"expanded"`
	Generated   int64 `json:"generated"`
	PrunedEquiv int64 `json:"pruned_equiv,omitempty"`
	PrunedFTO   int64 `json:"pruned_fto,omitempty"`
	// Incumbent is the best complete schedule length in hand (including the
	// upper bound U); 0 before any.
	Incumbent int32 `json:"incumbent,omitempty"`
	// BestF is the largest proven lower bound on the optimum a best-first
	// search has reached; 0 from the depth-first engines and bnb, whose
	// popped f is no lower bound.
	BestF int32 `json:"best_f,omitempty"`
	// OpenLen is the current OPEN population summed over searchers.
	OpenLen int64 `json:"open_len,omitempty"`
}

// AddCounters returns s with o's cumulative counters added; s's gauges
// are kept.
func (s ProgressSnapshot) AddCounters(o ProgressSnapshot) ProgressSnapshot {
	s.Expanded += o.Expanded
	s.Generated += o.Generated
	s.PrunedEquiv += o.PrunedEquiv
	s.PrunedFTO += o.PrunedFTO
	return s
}

// Snapshot reads every counter and gauge.
func (p *Progress) Snapshot() ProgressSnapshot {
	return ProgressSnapshot{
		Expanded:    p.expanded.Load(),
		Generated:   p.generated.Load(),
		PrunedEquiv: p.prunedEquiv.Load(),
		PrunedFTO:   p.prunedFTO.Load(),
		Incumbent:   p.incumbent.Load(),
		BestF:       p.bestF.Load(),
		OpenLen:     p.open.Load(),
	}
}

// Record overwrites every counter and gauge with externally reported
// values — the remote path: a cluster worker publishes into its own
// Progress and reports its readings, which the coordinator folds into the
// job's. The caller ensures a single reporter per Progress, and no Meter
// publishes into it meanwhile.
func (p *Progress) Record(s ProgressSnapshot) {
	p.expanded.Store(s.Expanded)
	p.generated.Store(s.Generated)
	p.prunedEquiv.Store(s.PrunedEquiv)
	p.prunedFTO.Store(s.PrunedFTO)
	p.incumbent.Store(s.Incumbent)
	p.bestF.Store(s.BestF)
	p.open.Store(s.OpenLen)
}

// Meter returns a publisher of one searcher's effort into p, or nil when
// p is nil; searchers guard each Publish with a nil check, so a solve
// without a Progress pays one comparison per poll.
func (p *Progress) Meter() *Meter {
	if p == nil {
		return nil
	}
	return &Meter{p: p}
}

// Meter publishes one searcher's Stats and gauges into a Progress. It
// remembers the counters it has published, so each Publish adds only the
// growth since the last; it belongs to the searcher's goroutine.
type Meter struct {
	p    *Progress
	last ProgressSnapshot
}

// Publish adds the growth of s since the last Publish to the counters,
// moves the OPEN gauge by the change in this searcher's open, and offers
// incumbent (0: none) and floor (a lower bound on the solutions left in
// OPEN; 0 from searchers without one). The frontier published is
// min(floor, incumbent), a proven lower bound on the optimum.
//
//icpp98:hotpath
func (m *Meter) Publish(s *Stats, open int, incumbent, floor int32) {
	p, last := m.p, &m.last
	grow(&p.expanded, s.Expanded, &last.Expanded)
	grow(&p.generated, s.Generated, &last.Generated)
	grow(&p.prunedEquiv, s.PrunedEquiv, &last.PrunedEquiv)
	grow(&p.prunedFTO, s.PrunedFTO, &last.PrunedFTO)
	grow(&p.open, int64(open), &last.OpenLen)
	if incumbent > 0 {
		floor = min(floor, incumbent)
		for cur := p.incumbent.Load(); cur == 0 || cur > incumbent; cur = p.incumbent.Load() {
			if p.incumbent.CompareAndSwap(cur, incumbent) {
				break
			}
		}
	}
	for cur := p.bestF.Load(); cur < floor; cur = p.bestF.Load() {
		if p.bestF.CompareAndSwap(cur, floor) {
			break
		}
	}
}

// grow adds the change from *last to now to c and records now.
//
//icpp98:hotpath
func grow(c *atomic.Int64, now int64, last *int64) {
	if d := now - *last; d != 0 {
		c.Add(d)
		*last = now
	}
}

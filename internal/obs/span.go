// Package obs is the job-scoped observability layer: hand-rolled
// lifecycle spans and sampled search telemetry, with no external
// dependencies (the repository takes none). A job is assigned a trace ID
// at submission; every stage of its life — admission, queue wait, cache
// lookup, placement, each lease attempt on a cluster worker, the engine
// solve, result persistence — records a timed Span into the job's
// Recorder. Spans are plain wire values, so a remote worker's spans ride
// the cluster report protocol and fold back into the coordinator's trace
// for the job. Alongside the spans, a fixed-size Ring of telemetry
// Samples captures the incumbent-convergence time-series of the running
// search (see telemetry.go).
//
// The design constraint throughout is "near-zero overhead on the search":
// the expansion hot path never touches this package — engines publish
// atomic counters (core.Progress), and a sampler goroutine reads
// them from outside on a ticker. Recording a span costs one mutex
// acquisition per lifecycle stage, a handful per job.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Origins for Span.Origin: which process observed the stage. Workers use
// OriginWorker + ":" + name.
const (
	OriginDaemon      = "daemon"
	OriginCoordinator = "coordinator"
	OriginWorker      = "worker"
)

// traceSeq breaks ties if the random source ever fails; IDs stay unique
// within the process either way.
var traceSeq atomic.Int64

// NewTraceID returns a 32-hex-character identifier, assigned to every job
// at submission and attached to its spans, log records, and wire leases.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("trace-%d-%d", time.Now().UnixNano(), traceSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// Span is one timed stage of a job's life, in its JSON wire form. Start
// and End are wall-clock Unix nanoseconds so spans recorded by different
// processes order on a shared axis (the cluster runs NTP-close hosts; a
// rendered timeline tolerates small skew).
type Span struct {
	// Name identifies the stage: "admit", "queue", "cache", "dispatch",
	// "lease", "solve", "persist".
	Name string `json:"name"`
	// Origin is the process that observed the stage: "daemon",
	// "coordinator", or "worker:<name>".
	Origin string `json:"origin"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
	// DurationMS duplicates End-Start for human consumers of the JSON.
	DurationMS float64 `json:"duration_ms"`
	// Attrs carry stage detail: engine names, cache outcome, worker ID,
	// lease attempt number, error summaries.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Duration returns the span's length.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// maxSpans bounds one job's trace. A job's lifecycle records well under
// twenty spans even across repeated cluster failovers; the cap exists so
// a hostile or buggy reporter cannot grow a trace without bound. Dropped
// spans are counted, never silently discarded.
const maxSpans = 256

// Recorder accumulates one job's spans. It is safe for concurrent use:
// the HTTP handlers, the job's lifecycle goroutine, and the cluster
// coordinator all record into the same Recorder.
type Recorder struct {
	mu      sync.Mutex
	traceID string
	spans   []Span
	dropped int
}

// NewRecorder builds the span recorder of one job.
func NewRecorder(traceID string) *Recorder {
	return &Recorder{traceID: traceID}
}

// NewRecorderSeeded rebuilds a recorder from spans recovered off durable
// storage — the restart path: the job store spills each job's spans into
// its WAL record, and a restarted daemon reseeds the trace so
// /v1/jobs/{id}/trace spans the crash. Spans beyond the cap count as
// dropped, exactly as if they had been recorded live.
func NewRecorderSeeded(traceID string, spans []Span) *Recorder {
	r := &Recorder{traceID: traceID}
	for _, s := range spans {
		r.Record(s)
	}
	return r
}

// TraceID returns the job's trace identifier.
func (r *Recorder) TraceID() string { return r.traceID }

// Record appends a finished span — the fold-in path for spans a remote
// worker shipped over the wire, and the backend of ActiveSpan.End.
func (r *Recorder) Record(s Span) {
	if s.DurationMS == 0 && s.End > s.Start {
		s.DurationMS = float64(s.End-s.Start) / 1e6
	}
	r.mu.Lock()
	if len(r.spans) >= maxSpans {
		r.dropped++
	} else {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// RecordTimed records a completed span from explicit times and flat
// key/value attribute pairs.
func (r *Recorder) RecordTimed(name, origin string, start, end time.Time, attrs ...string) {
	r.Record(Span{
		Name: name, Origin: origin,
		Start: start.UnixNano(), End: end.UnixNano(),
		Attrs: attrMap(attrs),
	})
}

// Start opens a span that ends when End is called on the returned
// ActiveSpan. The span is recorded at End time, so an in-flight stage is
// not yet visible in Snapshot — lifecycle stages are short, and a trace
// reader sees only consistent (finished) spans.
func (r *Recorder) Start(name, origin string) *ActiveSpan {
	return &ActiveSpan{r: r, name: name, origin: origin, start: time.Now()}
}

// ActiveSpan is an open span; End closes and records it.
type ActiveSpan struct {
	r      *Recorder
	name   string
	origin string
	start  time.Time
}

// End records the span with flat key/value attribute pairs:
// span.End("outcome", "hit").
func (a *ActiveSpan) End(attrs ...string) {
	a.r.RecordTimed(a.name, a.origin, a.start, time.Now(), attrs...)
}

// Snapshot returns the recorded spans ordered by start time, plus how
// many were dropped at the cap.
func (r *Recorder) Snapshot() (spans []Span, dropped int) {
	r.mu.Lock()
	spans = make([]Span, len(r.spans))
	copy(spans, r.spans)
	dropped = r.dropped
	r.mu.Unlock()
	// Insertion order is already nearly sorted (stages record as they
	// finish); a stable insertion sort keeps equal-start spans in record
	// order so admission precedes queueing on the rendered timeline.
	for i := 1; i < len(spans); i++ {
		for k := i; k > 0 && spans[k].Start < spans[k-1].Start; k-- {
			spans[k], spans[k-1] = spans[k-1], spans[k]
		}
	}
	return spans, dropped
}

// attrMap folds flat key/value pairs into a map; an odd trailing key gets
// an empty value rather than panicking.
func attrMap(attrs []string) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, (len(attrs)+1)/2)
	for i := 0; i < len(attrs); i += 2 {
		v := ""
		if i+1 < len(attrs) {
			v = attrs[i+1]
		}
		m[attrs[i]] = v
	}
	return m
}

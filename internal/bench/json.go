package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// This file is the machine-readable side of the harness: WriteJSON turns
// any experiment result into a BENCH_<name>.json report, so the perf
// trajectory of the repository can be recorded run-over-run and diffed by
// tooling instead of read off markdown tables.

// Result is the surface every experiment result shares: its tables, which
// Write renders in a human format and WriteJSON exports. Every Run*
// constructor returns one.
type Result interface {
	Tables() []*table
}

// Write renders r's tables as CSV when format is "csv" and as Markdown
// otherwise, then one line per gate failure when r is a gated experiment
// (it has a FailureList).
func Write(w io.Writer, format string, r Result) error {
	for _, t := range r.Tables() {
		var err error
		if format == "csv" {
			err = t.WriteCSV(w)
		} else {
			err = t.WriteMarkdown(w)
		}
		if err != nil {
			return err
		}
	}
	if g, ok := r.(interface{ FailureList() []string }); ok {
		for _, f := range g.FailureList() {
			if _, err := fmt.Fprintf(w, "GATE FAILURE: %s\n", f); err != nil {
				return err
			}
		}
	}
	return nil
}

// EngineRecord is one fully machine-readable measurement: an engine on an
// instance, with its throughput derived. Only the engines experiment
// produces these (the other experiments export their tables verbatim).
type EngineRecord struct {
	CCR            float64 `json:"ccr"`
	V              int     `json:"v"`
	Engine         string  `json:"engine"`
	Section        string  `json:"section,omitempty"`
	WallMS         float64 `json:"wall_ms"`
	Expanded       int64   `json:"expanded"`
	ExpandedPerSec float64 `json:"expanded_per_sec"`
	Makespan       int32   `json:"makespan"`
	Optimal        bool    `json:"optimal"`
}

// SpeedupRecord is one machine-readable measurement of the speedup
// experiment: the native engine at one worker count on one instance, with
// its self-relative ratios. Wall-clock numbers are only comparable within
// one host — the Host block records which.
type SpeedupRecord struct {
	V              int     `json:"v"`
	Workers        int     `json:"workers"`
	Mode           string  `json:"mode"` // "dive" (proof) | "budget" (fixed work)
	WallMS         float64 `json:"wall_ms"`
	Expanded       int64   `json:"expanded"`
	ExpandedPerSec float64 `json:"expanded_per_sec"`
	Makespan       int32   `json:"makespan"`
	Optimal        bool    `json:"optimal"`
	BoundFactor    float64 `json:"bound_factor"`
	WallSpeedup    float64 `json:"wall_speedup"`
	RateSpeedup    float64 `json:"rate_speedup"`
	ModeledSpeedup float64 `json:"modeled_speedup,omitempty"`
}

// PruningRecord is one machine-readable measurement of the pruning
// ablation: a variant on a corpus cell, with the pruning counters and the
// expansion ratio against that cell's baseline variant.
type PruningRecord struct {
	Cell           string  `json:"cell"`
	V              int     `json:"v"`
	System         string  `json:"system"`
	Variant        string  `json:"variant"`
	WallMS         float64 `json:"wall_ms"`
	Expanded       int64   `json:"expanded"`
	BaselineRatio  float64 `json:"baseline_ratio,omitempty"` // baseline expansions / this variant's
	PrunedEquiv    int64   `json:"pruned_equiv"`
	PrunedFTO      int64   `json:"pruned_fto"`
	Makespan       int32   `json:"makespan"`
	Optimal        bool    `json:"optimal"`
	ExpandedPerSec float64 `json:"expanded_per_sec,omitempty"`
}

// HostInfo pins wall-clock measurements to the machine that produced them.
type HostInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
}

// TableJSON is the generic export of one rendered table.
type TableJSON struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// JSONReport is the top-level shape of a BENCH_<name>.json file.
type JSONReport struct {
	Experiment string `json:"experiment"`
	// GeneratedAt is RFC 3339 UTC, so consecutive reports sort by name
	// and diff by time.
	GeneratedAt string          `json:"generated_at"`
	Host        *HostInfo       `json:"host,omitempty"`
	Engines     []EngineRecord  `json:"engines,omitempty"`
	Speedup     []SpeedupRecord `json:"speedup,omitempty"`
	Pruning     []PruningRecord `json:"pruning,omitempty"`
	Serve       *ServeSummary   `json:"serve,omitempty"`
	Failures    []string        `json:"failures,omitempty"`
	Tables      []TableJSON     `json:"tables"`
}

// Records derives the per-engine measurements of the engines experiment,
// including expanded-states/sec (0 for a cell too fast to time).
func (r *EnginesResult) Records() []EngineRecord {
	out := make([]EngineRecord, 0, len(r.Rows))
	for _, row := range r.Rows {
		rec := EngineRecord{
			CCR:      row.CCR,
			V:        row.V,
			Engine:   row.Engine,
			Section:  row.Section,
			WallMS:   float64(row.Time.Microseconds()) / 1000,
			Expanded: row.Expanded,
			Makespan: row.Length,
			Optimal:  row.Optimal,
		}
		if row.Time > 0 {
			rec.ExpandedPerSec = float64(row.Expanded) / row.Time.Seconds()
		}
		out = append(out, rec)
	}
	return out
}

// Records derives the per-cell measurements of the speedup experiment.
func (r *SpeedupResult) Records() []SpeedupRecord {
	out := make([]SpeedupRecord, 0, len(r.Rows))
	for _, row := range r.Rows {
		rec := SpeedupRecord{
			V:              row.V,
			Workers:        row.Workers,
			Mode:           row.Mode,
			WallMS:         float64(row.Time.Microseconds()) / 1000,
			Expanded:       row.Expanded,
			Makespan:       row.Length,
			Optimal:        row.Optimal,
			BoundFactor:    row.Bound,
			WallSpeedup:    row.WallSpeedup,
			RateSpeedup:    row.RateSpeedup,
			ModeledSpeedup: row.Modeled,
		}
		if row.Time > 0 {
			rec.ExpandedPerSec = float64(row.Expanded) / row.Time.Seconds()
		}
		out = append(out, rec)
	}
	return out
}

// Records derives the per-(cell, variant) measurements of the pruning
// ablation, including each variant's expansion ratio against its cell's
// baseline.
func (r *PruningResult) Records() []PruningRecord {
	baseline := map[string]int64{}
	for _, row := range r.Rows {
		if row.Variant == "baseline" {
			baseline[row.Cell] = row.Expanded
		}
	}
	out := make([]PruningRecord, 0, len(r.Rows))
	for _, row := range r.Rows {
		rec := PruningRecord{
			Cell:        row.Cell,
			V:           row.V,
			System:      row.System,
			Variant:     row.Variant,
			WallMS:      float64(row.Time.Microseconds()) / 1000,
			Expanded:    row.Expanded,
			PrunedEquiv: row.PrunedEquiv,
			PrunedFTO:   row.PrunedFTO,
			Makespan:    row.Length,
			Optimal:     row.Optimal,
		}
		if b := baseline[row.Cell]; b > 0 && row.Expanded > 0 && row.Variant != "baseline" {
			rec.BaselineRatio = float64(b) / float64(row.Expanded)
		}
		if row.Time > 0 {
			rec.ExpandedPerSec = float64(row.Expanded) / row.Time.Seconds()
		}
		out = append(out, rec)
	}
	return out
}

// CheckServeReport validates a BENCH_serve.json on disk: it must parse as
// a JSONReport of the serve experiment, carry the SLO summary fields the
// dashboard consumes (requests served, jobs/sec, latency percentiles), and
// record no gate failures. This is the CI-side half of the serve gate: the
// experiment exits non-zero when a gate trips, and this keeps the committed
// baseline itself from rotting into an unparseable or failure-carrying file.
func CheckServeReport(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep JSONReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rep.Experiment != "serve" {
		return fmt.Errorf("%s: experiment is %q, want \"serve\"", path, rep.Experiment)
	}
	if rep.Serve == nil {
		return fmt.Errorf("%s: missing serve summary", path)
	}
	if len(rep.Failures) > 0 {
		return fmt.Errorf("%s: report carries %d gate failures (first: %s)", path, len(rep.Failures), rep.Failures[0])
	}
	s := rep.Serve
	switch {
	case s.Requests <= 0:
		return fmt.Errorf("%s: serve summary reports %d requests", path, s.Requests)
	case s.JobsPerSec <= 0:
		return fmt.Errorf("%s: serve summary reports %.2f jobs/sec", path, s.JobsPerSec)
	case s.P50MS <= 0 || s.P99MS <= 0:
		return fmt.Errorf("%s: serve summary is missing latency percentiles (p50=%.3fms p99=%.3fms)", path, s.P50MS, s.P99MS)
	case s.HitRate <= 0 || s.HitRate > 1:
		return fmt.Errorf("%s: cache hit rate %.3f outside (0, 1]", path, s.HitRate)
	case s.SolveP50MS <= 0:
		return fmt.Errorf("%s: serve summary is missing per-stage span percentiles (solve p50=%.3fms)", path, s.SolveP50MS)
	case s.QueueP99MS < s.QueueP50MS:
		return fmt.Errorf("%s: queue p99 %.3fms below p50 %.3fms", path, s.QueueP99MS, s.QueueP50MS)
	}
	return nil
}

// WriteJSON writes the machine-readable report of one experiment run.
func WriteJSON(w io.Writer, name string, r Result) error {
	rep := JSONReport{
		Experiment:  name,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	if er, ok := r.(*EnginesResult); ok {
		rep.Engines = er.Records()
	}
	if sr, ok := r.(*SpeedupResult); ok {
		rep.Speedup = sr.Records()
		rep.Failures = sr.Failures
		rep.Host = &HostInfo{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
		}
	}
	if pr, ok := r.(*PruningResult); ok {
		rep.Pruning = pr.Records()
		rep.Failures = pr.Failures
	}
	if sv, ok := r.(*ServeResult); ok {
		rep.Serve = &sv.Summary
		rep.Failures = sv.Failures
		rep.Host = &HostInfo{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
		}
	}
	for _, t := range r.Tables() {
		rep.Tables = append(rep.Tables, TableJSON{
			Title:  t.Title,
			Header: t.Header,
			Rows:   t.Rows,
			Notes:  t.Notes,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

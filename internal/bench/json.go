package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// This file is the machine-readable side of the harness: WriteJSON turns
// any experiment result into a BENCH_<name>.json report, so the perf
// trajectory of the repository can be recorded run-over-run and diffed by
// tooling instead of read off markdown tables.

// Result is the surface every experiment result shares: its tables, which
// Write renders in a human format and WriteJSON exports, and its gate
// failures (engine errors and broken invariants), on which cmd/icpp98bench
// exits non-zero. Every Run* constructor returns one.
type Result interface {
	Tables() []*table
	FailureList() []string
}

// Write renders r's tables as CSV when format is "csv" and as Markdown
// otherwise, then one line per gate failure.
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
	for _, f := range r.FailureList() {
		if _, err := fmt.Fprintf(w, "GATE FAILURE: %s\n", f); err != nil {
			return err
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

// WriteJSON writes the machine-readable report of one experiment run.
func WriteJSON(w io.Writer, name string, r Result) error {
	rep := JSONReport{
		Experiment:  name,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Failures:    r.FailureList(),
	}
	if er, ok := r.(*EnginesResult); ok {
		rep.Engines = er.Records()
	}
	if sr, ok := r.(*SpeedupResult); ok {
		rep.Speedup = sr.Records()
		rep.Host = &HostInfo{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
		}
	}
	if pr, ok := r.(*PruningResult); ok {
		rep.Pruning = pr.Records()
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

package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// This file is the harness's one result shape: a Record per measured run
// and a Report per experiment. WriteJSON writes the report as
// BENCH_<name>.json, so the perf trajectory of the repository is recorded
// run-over-run and diffed by tooling; Write renders its tables.

// Record is one engine run on one instance. Fields that do not apply to
// a run are omitted from the JSON.
type Record struct {
	// Instance is the graph's name; System the target processor system.
	Instance string  `json:"instance"`
	System   string  `json:"system"`
	V        int     `json:"v"`
	CCR      float64 `json:"ccr,omitempty"`
	// Engine is a registry engine, "portfolio", or a list heuristic.
	Engine string `json:"engine"`
	// Variant is the pruning or heuristic variant, the speedup mode, the
	// distribution policy, or a portfolio's winning engine.
	Variant string `json:"variant,omitempty"`
	// Workers is the parallel engine's PPE count or the native engine's
	// worker count.
	Workers int     `json:"workers,omitempty"`
	Epsilon float64 `json:"epsilon,omitempty"`
	WallMS  float64 `json:"wall_ms"`
	// Expanded and Generated count the states removed from OPEN and the
	// child states constructed (a portfolio sums every entrant's).
	Expanded  int64 `json:"expanded"`
	Generated int64 `json:"generated"`
	// CriticalWork is the parallel engine's modeled critical path.
	CriticalWork int64   `json:"critical_work,omitempty"`
	PrunedEquiv  int64   `json:"pruned_equiv,omitempty"`
	PrunedFTO    int64   `json:"pruned_fto,omitempty"`
	Makespan     int32   `json:"makespan"`
	Optimal      bool    `json:"optimal"`
	BoundFactor  float64 `json:"bound_factor,omitempty"`
}

// HostInfo pins wall-clock measurements to the machine that produced them.
type HostInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
}

// Report is one experiment run: every record it measured, the gate
// failures (engine errors and broken invariants) on which cmd/icpp98bench
// exits non-zero, and the host and config that produced them. It is the
// shape of a BENCH_<name>.json file; Tables derives everything else.
type Report struct {
	Experiment string `json:"experiment"`
	// GeneratedAt is RFC 3339 UTC, so consecutive reports sort by name
	// and diff by time.
	GeneratedAt string   `json:"generated_at"`
	Host        HostInfo `json:"host"`
	Config      Config   `json:"config"`
	Failures    []string `json:"failures,omitempty"`
	Records     []Record `json:"records"`
}

func newReport(experiment string, cfg Config) *Report {
	return &Report{
		Experiment:  experiment,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host: HostInfo{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
		},
		Config:  cfg,
		Records: []Record{},
	}
}

func (r *Report) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// find returns the first record match accepts, or nil.
func (r *Report) find(match func(*Record) bool) *Record {
	for i := range r.Records {
		if match(&r.Records[i]) {
			return &r.Records[i]
		}
	}
	return nil
}

// Experiment is one entry of the experiment list: its name, the function
// that runs it, and the renderer that computes its tables from a report.
type Experiment struct {
	Name   string
	Run    func(Config) *Report
	tables func(*Report) []*table
}

// Experiments lists every experiment, in the order "-experiment all" runs
// them.
var Experiments = []Experiment{
	{"table1", RunTable1, table1Tables},
	{"fig6", RunFig6, fig6Tables},
	{"fig7", RunFig7, fig7Tables},
	{"ablation", RunAblation, ablationTables},
	{"pruning", RunPruning, pruningTables},
	{"distribution", RunDistribution, distributionTables},
	{"deviation", RunDeviation, deviationTables},
	{"engines", RunEngines, enginesTables},
	{"large", RunLarge, largeTables},
	{"speedup", RunSpeedup, speedupTables},
}

// Tables renders the report with its experiment's renderer, from the
// records and config alone; a report of an unknown experiment has none.
func (r *Report) Tables() []*table {
	for _, e := range Experiments {
		if e.Name == r.Experiment {
			return e.tables(r)
		}
	}
	return nil
}

// Write renders r's tables as CSV when format is "csv" and as Markdown
// otherwise, then one line per gate failure.
func Write(w io.Writer, format string, r *Report) error {
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
	for _, f := range r.Failures {
		if _, err := fmt.Fprintf(w, "GATE FAILURE: %s\n", f); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes the report as indented JSON.
func WriteJSON(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

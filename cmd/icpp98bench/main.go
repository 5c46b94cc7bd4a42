// Command icpp98bench regenerates the tables and figures of the paper's
// evaluation (§4):
//
//	icpp98bench -experiment table1            # Table 1: Chen vs A* full vs A*
//	icpp98bench -experiment fig6              # Figure 6: parallel A* speedups
//	icpp98bench -experiment fig7              # Figure 7: parallel Aε* quality/time
//	icpp98bench -experiment ablation          # per-pruning + heuristic ablation
//	icpp98bench -experiment pruning           # equivalent-task/FTO/HLoad ablation + gate
//	icpp98bench -experiment distribution      # parallel placement-policy ablation
//	icpp98bench -experiment deviation         # list heuristics vs proven optima
//	icpp98bench -experiment engines           # every registry engine head-to-head
//	icpp98bench -experiment large             # v > 64: Aε*/portfolio at 80/128/256
//	icpp98bench -experiment speedup           # native engine: real multi-core scaling
//	icpp98bench -experiment all               # everything
//
// Serving-tier load is measured by the repository benchmark, not here:
// `bash perf/run.sh --workload serve-warm` (or serve-cold) drives a live
// daemon and reports latency, throughput and the per-stage span split.
//
// -checkmetrics <url|path> lints a Prometheus text exposition — a live
// daemon's /metrics scraped over HTTP, or a saved page — against the
// 0.0.4 format contract (bench.LintMetrics) and exits non-zero on any
// violation. CI runs it against a freshly started icpp98d.
//
// The default configuration trims the sweep to laptop-scale sizes; -full
// runs the paper's 10..32 sizes (expect censored cells unless -budget and
// -timeout are raised substantially — the original Table 1 cells took up to
// days on the Intel Paragon).
//
// -out controls where every output lands. With a file path, tables go to
// that file and -json reports go to BENCH_<experiment>.json in the same
// directory; with a directory (existing, or any path ending in a path
// separator), tables go to <dir>/BENCH_<experiment>.md (or .csv) and JSON to
// <dir>/BENCH_<experiment>.json; with os.DevNull everything is discarded.
// Every experiment is a gate: an engine error fails the run, naming the
// engine and the instance, and the speedup and pruning experiments add
// their own invariants (native cells must match serial A*'s optimum with a
// BoundFactor of 1; proven pruning variants must agree). The process exits
// non-zero after writing the reports when any gate failed.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/procgraph"
)

func main() {
	var names []string
	for _, e := range bench.Experiments {
		names = append(names, e.Name)
	}
	var (
		experiment   = flag.String("experiment", "all", strings.Join(append(names, "all"), " | "))
		sizes        = flag.String("sizes", "", "comma-separated graph sizes (default 10,12,14,16; speedup: 80,128)")
		ccrs         = flag.String("ccrs", "", "comma-separated CCRs (default 0.1,1,10)")
		ppes         = flag.String("ppes", "", "comma-separated PPE/worker counts for fig6 and speedup (default 2,4,8,16; speedup: 1,2,4,8)")
		epsilons     = flag.String("epsilons", "", "comma-separated ε for fig7 (default 0.2,0.5)")
		fig7ppes     = flag.Int("fig7ppes", 16, "PPE count for fig7 (paper: 16)")
		seed         = flag.Uint64("seed", 1998, "workload seed")
		budget       = flag.Int64("budget", 300000, "per-cell expansion budget (0 = unlimited)")
		timeout      = flag.Duration("timeout", 60*time.Second, "per-cell wall-clock budget (0 = none)")
		floor        = flag.Int("floor", 2, "parallel communication-period floor (paper: 2)")
		full         = flag.Bool("full", false, "run the paper's full 10..32 size sweep")
		format       = flag.String("format", "md", "output format: md | csv")
		out          = flag.String("out", "", "output path: a file for the tables, or a directory for per-experiment files; controls where -json reports land (default: stdout + CWD)")
		jsonOut      = flag.Bool("json", false, "also write a machine-readable BENCH_<experiment>.json per experiment (next to -out)")
		procs        = flag.Int("procs", 0, "target PEs per instance (0 = v, the paper's setting)")
		checkMetrics = flag.String("checkmetrics", "", "lint a Prometheus text exposition (a http(s):// URL to scrape, or a file path) and exit")
	)
	flag.Parse()

	if *checkMetrics != "" {
		page, err := readMetricsPage(*checkMetrics)
		if err != nil {
			fatal(err)
		}
		if problems := bench.LintMetrics(page); len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintf(os.Stderr, "icpp98bench: %s: %s\n", *checkMetrics, p)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%s: ok\n", *checkMetrics)
		return
	}

	cfg := bench.Config{
		Seed:        *seed,
		CellBudget:  *budget,
		CellTimeout: *timeout,
		Fig7PPEs:    *fig7ppes,
		PeriodFloor: *floor,
	}
	if *full {
		cfg.Sizes = bench.Full().Sizes
	}
	if *sizes != "" {
		cfg.Sizes = parseInts(*sizes)
	}
	if *ccrs != "" {
		cfg.CCRs = parseFloats(*ccrs)
	}
	if *ppes != "" {
		cfg.PPEs = parseInts(*ppes)
	}
	if *epsilons != "" {
		cfg.Epsilons = parseFloats(*epsilons)
	}
	if *procs > 0 {
		p := *procs
		cfg.TargetProcs = func(int) *procgraph.System { return procgraph.Complete(p) }
	}

	plan, err := newOutputPlan(*out, *format)
	if err != nil {
		fatal(err)
	}
	defer plan.Close()

	var gateFailures []string
	run := func(e bench.Experiment) {
		started := time.Now()
		fmt.Fprintf(os.Stderr, "running %s...\n", e.Name)
		rep := e.Run(cfg)
		w, closeTable, err := plan.tableWriter(e.Name)
		if err != nil {
			fatal(err)
		}
		if err := bench.Write(w, *format, rep); err != nil {
			fatal(err)
		}
		if err := closeTable(); err != nil {
			fatal(err)
		}
		if *jsonOut {
			if path, ok := plan.jsonPath(e.Name); ok {
				f, err := os.Create(path)
				if err != nil {
					fatal(err)
				}
				if err := bench.WriteJSON(f, rep); err != nil {
					f.Close()
					fatal(err)
				}
				if err := f.Close(); err != nil {
					fatal(err)
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			}
		}
		// A gate failure (an engine error, or an experiment's own invariant)
		// fails the whole process after reporting.
		gateFailures = append(gateFailures, rep.Failures...)
		fmt.Fprintf(os.Stderr, "%s done in %v\n", e.Name, time.Since(started).Round(time.Millisecond))
	}

	found := false
	for _, e := range bench.Experiments {
		if *experiment == "all" || *experiment == e.Name {
			found = true
			run(e)
		}
	}
	if !found {
		fatal(fmt.Errorf("unknown experiment %q", *experiment))
	}
	if len(gateFailures) > 0 {
		for _, f := range gateFailures {
			fmt.Fprintln(os.Stderr, "icpp98bench: GATE FAILURE:", f)
		}
		plan.Close()
		os.Exit(1)
	}
}

// outputPlan resolves the -out flag into per-experiment table writers and
// JSON report paths, so -out controls where *every* artifact lands:
//
//   - "" (unset): tables to stdout, JSON to BENCH_<name>.json in the CWD;
//   - os.DevNull: everything is discarded (nothing touches the CWD);
//   - an existing directory, or any path with a trailing separator (created
//     if missing): tables to <dir>/BENCH_<name>.md (or .csv), JSON to
//     <dir>/BENCH_<name>.json;
//   - anything else: one shared table file, JSON next to it.
type outputPlan struct {
	mode   string // "stdout" | "discard" | "dir" | "file"
	dir    string // JSON/table directory for "dir" and "file"
	format string
	file   *os.File // the shared table file of "file" mode
}

func newOutputPlan(out, format string) (*outputPlan, error) {
	switch {
	case out == "":
		return &outputPlan{mode: "stdout", format: format}, nil
	case out == os.DevNull:
		return &outputPlan{mode: "discard", format: format}, nil
	}
	if strings.HasSuffix(out, string(os.PathSeparator)) || strings.HasSuffix(out, "/") {
		if err := os.MkdirAll(out, 0o777); err != nil {
			return nil, err
		}
		return &outputPlan{mode: "dir", dir: filepath.Clean(out), format: format}, nil
	}
	if st, err := os.Stat(out); err == nil && st.IsDir() {
		return &outputPlan{mode: "dir", dir: filepath.Clean(out), format: format}, nil
	}
	f, err := os.Create(out)
	if err != nil {
		return nil, err
	}
	return &outputPlan{mode: "file", dir: filepath.Dir(out), format: format, file: f}, nil
}

// tableWriter returns the destination for one experiment's tables plus a
// close func (a no-op for shared destinations).
func (p *outputPlan) tableWriter(name string) (io.Writer, func() error, error) {
	noop := func() error { return nil }
	switch p.mode {
	case "stdout":
		return os.Stdout, noop, nil
	case "discard":
		return io.Discard, noop, nil
	case "file":
		return p.file, noop, nil
	default: // dir
		ext := "md"
		if p.format == "csv" {
			ext = "csv"
		}
		f, err := os.Create(filepath.Join(p.dir, "BENCH_"+name+"."+ext))
		if err != nil {
			return nil, nil, err
		}
		return f, f.Close, nil
	}
}

// jsonPath returns where the experiment's JSON report goes; ok is false
// when JSON output is discarded.
func (p *outputPlan) jsonPath(name string) (string, bool) {
	switch p.mode {
	case "stdout":
		return "BENCH_" + name + ".json", true
	case "discard":
		return "", false
	default: // dir, file
		return filepath.Join(p.dir, "BENCH_"+name+".json"), true
	}
}

// Close releases the shared table file, if any.
func (p *outputPlan) Close() error {
	if p.file != nil {
		err := p.file.Close()
		p.file = nil
		return err
	}
	return nil
}

// readMetricsPage fetches a -checkmetrics target: an HTTP(S) URL is
// scraped like a Prometheus server would, anything else is read as a file.
func readMetricsPage(target string) (string, error) {
	if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
		resp, err := http.Get(target)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("scrape %s: %s", target, resp.Status)
		}
		return string(data), nil
	}
	data, err := os.ReadFile(target)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fatal(fmt.Errorf("bad integer %q: %w", part, err))
		}
		out = append(out, v)
	}
	return out
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fatal(fmt.Errorf("bad float %q: %w", part, err))
		}
		out = append(out, v)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "icpp98bench:", err)
	os.Exit(1)
}

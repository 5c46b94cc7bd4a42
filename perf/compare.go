package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compare judges a change from two sets of run records made with identical
// benchmark settings, one on the parent commit and one on the change:
//
//	go run . compare -base a1.json a2.json ... -new b1.json b2.json ...
//
// For every (workload, end-to-end metric) it reports
//
//   - better: at least 10 pairs were run (the i-th base record is paired
//     with the i-th new record), the change wins at least 9 in 10 of
//     them (ties count for neither side), and the medians differ by more
//     than the base runs' interquartile range;
//   - unresolved: the base runs spread by more than the metric's bound
//     (IQR over median), unless every new run reads better than every
//     base run (same) or worse by more than the bound (worse);
//   - worse: the new median is worse than the base median by more than
//     the metric's bound in BENCHMARK.json;
//   - same: otherwise.
//
// It exits 1 when any verdict is worse.

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type verdict struct {
	Workload, Metric string
	Verdict          string
	BaseMedian       float64
	NewMedian        float64
	BaseIQR          float64
	Wins, Pairs      int
}

func compareMain(args []string, stdout io.Writer) int {
	benchPath := ""
	var base, changed []string
	list := &base
	for i := 0; i < len(args); i++ {
		switch a := args[i]; a {
		case "-base", "--base":
			list = &base
		case "-new", "--new":
			list = &changed
		case "-benchmark", "--benchmark":
			if i+1 == len(args) {
				fmt.Fprintln(os.Stderr, "compare: -benchmark needs a file")
				return 2
			}
			i++
			benchPath = args[i]
		default:
			*list = append(*list, a)
		}
	}
	if len(base) == 0 || len(changed) == 0 {
		fmt.Fprintln(os.Stderr, "usage: compare [-benchmark BENCHMARK.json] -base a.json... -new b.json...")
		return 2
	}
	bench, err := loadBenchmark(benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	baseRecs, err := loadRecords(base)
	if err == nil {
		var newRecs []record
		newRecs, err = loadRecords(changed)
		if err == nil {
			fmt.Fprintf(stdout, "host_probe_ms median: base %.3g, new %.3g (the same work on both sides; a gap means the host changed speed)\n",
				median(probes(baseRecs)), median(probes(newRecs)))
			return printVerdicts(stdout, compareRuns(bench, baseRecs, newRecs))
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	return 1
}

// probes collects the warm-up's host readings of every run.
func probes(recs []record) []float64 {
	var out []float64
	for _, rec := range recs {
		for _, w := range rec.Workloads {
			out = append(out, w.HostProbeMS)
		}
	}
	return out
}

// loadBenchmark reads BENCHMARK.json from path, or when path is empty from
// the repository root, whether run there or from perf/.
func loadBenchmark(path string) (*benchmarkFile, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var lastErr error
	for _, p := range candidates {
		data, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var b benchmarkFile
		if err := json.Unmarshal(data, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &b, nil
	}
	return nil, lastErr
}

func loadRecords(paths []string) ([]record, error) {
	out := make([]record, 0, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rec.Trace {
			return nil, fmt.Errorf("%s is a traced run; compare the untraced runs", p)
		}
		out = append(out, rec)
	}
	return out, nil
}

// series collects one metric of one workload across records, in order.
func series(recs []record, workload, metric string) []float64 {
	var out []float64
	for _, rec := range recs {
		for _, w := range rec.Workloads {
			if m, ok := w.Metrics[metric]; ok && w.Name == workload {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// quartiles returns the first and third quartiles by the method of Python's
// statistics.quantiles(data, n=4) (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func compareRuns(bench *benchmarkFile, base, changed []record) []verdict {
	var workloadsSeen []string
	seen := map[string]bool{}
	for _, rec := range base {
		for _, w := range rec.Workloads {
			if !seen[w.Name] {
				seen[w.Name] = true
				workloadsSeen = append(workloadsSeen, w.Name)
			}
		}
	}
	var out []verdict
	for _, wl := range workloadsSeen {
		for _, bm := range bench.EndToEnd {
			b, n := series(base, wl, bm.Name), series(changed, wl, bm.Name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			out = append(out, judge(wl, bm, b, n))
		}
	}
	return out
}

func judge(workload string, bm benchMetric, b, n []float64) verdict {
	v := verdict{Workload: workload, Metric: bm.Name, BaseMedian: median(b), NewMedian: median(n)}
	q1, q3 := quartiles(b)
	v.BaseIQR = q3 - q1
	// gain > 0 when the change is better, in units of the metric.
	gain := func(base, changed float64) float64 {
		if bm.Better == "higher" {
			return changed - base
		}
		return base - changed
	}
	v.Pairs = min(len(b), len(n))
	for i := 0; i < v.Pairs; i++ {
		if gain(b[i], n[i]) > 0 {
			v.Wins++
		}
	}
	allBetter, allWorse := true, true
	for _, x := range b {
		for _, y := range n {
			allBetter = allBetter && gain(x, y) > 0
			allWorse = allWorse && gain(x, y) < 0
		}
	}
	medGain := gain(v.BaseMedian, v.NewMedian)
	worseBy := -medGain / v.BaseMedian
	switch {
	case v.Pairs >= 10 && v.Wins*10 >= 9*v.Pairs && medGain > v.BaseIQR:
		v.Verdict = "better"
	case v.BaseIQR/v.BaseMedian > bm.Bound:
		switch {
		case allBetter:
			v.Verdict = "same"
		case allWorse && worseBy > bm.Bound:
			v.Verdict = "worse"
		default:
			v.Verdict = "unresolved"
		}
	case worseBy > bm.Bound:
		v.Verdict = "worse"
	default:
		v.Verdict = "same"
	}
	return v
}

func printVerdicts(w io.Writer, vs []verdict) int {
	code := 0
	fmt.Fprintf(w, "%-13s %-17s %-10s %12s %12s %8s %9s %6s\n",
		"workload", "metric", "verdict", "base_median", "new_median", "change", "base_iqr", "wins")
	for _, v := range vs {
		fmt.Fprintf(w, "%-13s %-17s %-10s %12.5g %12.5g %+7.1f%% %8.1f%% %3d/%-3d\n",
			v.Workload, v.Metric, v.Verdict, v.BaseMedian, v.NewMedian,
			100*ratio(v.NewMedian-v.BaseMedian, v.BaseMedian), 100*ratio(v.BaseIQR, v.BaseMedian), v.Wins, v.Pairs)
		if v.Verdict == "worse" {
			code = 1
		}
	}
	return code
}

package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// runs builds one untraced record per value of one workload's metric.
func runs(workload, metric string, values ...float64) []record {
	out := make([]record, len(values))
	for i, v := range values {
		r := newResult(workload)
		r.Metrics.add(metric, v, "ms")
		out[i] = record{Workloads: []*result{r}}
	}
	return out
}

// spread returns n evenly spaced values around center whose interquartile
// range is close to width.
func spread(center, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = center + width*(float64(i)/float64(n-1)-0.5)*1.5
	}
	return out
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles = %g, %g; want 1, 3", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := benchMetric{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1}
	higher := benchMetric{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	steady := spread(100, 2, 10) // IQR 2%
	shifted := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + by
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		bm     benchMetric
		b, n   []float64
		want   string
		reason string
	}{
		{"faster", lower, steady, shifted(steady, -5), "better", "every pair wins and the gap exceeds the IQR"},
		{"slower beyond bound", lower, steady, shifted(steady, 15), "worse", "median 15% worse, bound 10%"},
		{"slower within bound", lower, steady, shifted(steady, 5), "same", "median 5% worse, bound 10%"},
		{"gap inside IQR", lower, steady, shifted(steady, -1), "same", "wins every pair but the gap is below the 2-unit IQR"},
		{"too few pairs", lower, steady[:5], shifted(steady[:5], -5), "same", "a gain needs ten pairs"},
		{"noisy", lower, spread(100, 30, 10), spread(104, 30, 10), "unresolved", "base IQR 30% exceeds the bound"},
		{"noisy but all better", lower, spread(100, 30, 10), spread(40, 10, 10), "better", "every run better"},
		{"noisy and all worse", lower, spread(100, 30, 10), spread(200, 30, 10), "worse", "every run worse, beyond the bound"},
		{"throughput up", higher, steady, shifted(steady, 5), "better", "higher is better"},
		{"throughput down", higher, steady, shifted(steady, -20), "worse", "higher is better"},
	} {
		v := judge("w", tc.bm, tc.b, tc.n)
		if v.Verdict != tc.want {
			t.Errorf("%s: verdict %s, want %s (%s); %+v", tc.name, v.Verdict, tc.want, tc.reason, v)
		}
	}
}

func TestCompareRunsAndExitCode(t *testing.T) {
	bench := &benchmarkFile{EndToEnd: []benchMetric{
		{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	}}
	base := runs("paper-exact", "latency_ms_p50", spread(10, 0.1, 10)...)
	same := runs("paper-exact", "latency_ms_p50", spread(10.05, 0.1, 10)...)
	vs := compareRuns(bench, base, same)
	if len(vs) != 1 || vs[0].Verdict != "same" || vs[0].Pairs != 10 {
		t.Fatalf("compareRuns = %+v; want one same verdict over 10 pairs", vs)
	}
	if math.Abs(vs[0].BaseMedian-10) > 1e-9 {
		t.Errorf("base median %g, want 10", vs[0].BaseMedian)
	}
	var out bytes.Buffer
	if code := printVerdicts(&out, vs); code != 0 || !strings.Contains(out.String(), "same") {
		t.Errorf("printVerdicts = %d\n%s", code, out.String())
	}
	slow := runs("paper-exact", "latency_ms_p50", spread(13, 0.1, 10)...)
	out.Reset()
	if code := printVerdicts(&out, compareRuns(bench, base, slow)); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a worse verdict must exit 1; got %d\n%s", code, out.String())
	}
}

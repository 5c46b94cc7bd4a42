package main

// The client's observability renderers: `client trace` turns a job's
// GET /v1/jobs/{id}/trace response into an ASCII timeline plus a
// telemetry roll-up, and `client metrics` pretty-prints the daemon's
// Prometheus exposition (histograms as count/sum/approximate quantiles,
// label families grouped) instead of dumping raw scrape text at a human.
// Both are factored over io.Writer for tests.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/server"
)

// printTrace renders one job's trace: a header, one bar per span on a
// shared time axis, and the sampled-search telemetry summary when the job
// ran a real solve (cache hits have none).
func printTrace(out io.Writer, tr server.TraceResponse, width int, withSamples bool) {
	fmt.Fprintf(out, "job %s  trace %s  state %s\n", tr.ID, tr.TraceID, tr.State)
	if len(tr.Spans) == 0 {
		fmt.Fprintln(out, "no spans recorded")
		return
	}
	if width < 10 {
		width = 10
	}
	minStart, maxEnd := tr.Spans[0].Start, tr.Spans[0].End
	nameW, originW := 0, 0
	for _, sp := range tr.Spans {
		if sp.Start < minStart {
			minStart = sp.Start
		}
		if sp.End > maxEnd {
			maxEnd = sp.End
		}
		nameW = max(nameW, len(sp.Name))
		originW = max(originW, len(sp.Origin))
	}
	total := maxEnd - minStart
	if total <= 0 {
		total = 1
	}
	fmt.Fprintf(out, "%d spans over %s\n", len(tr.Spans), fmtMS(float64(total)/1e6))
	if tr.DroppedSpans > 0 {
		fmt.Fprintf(out, "(%d spans dropped at the cap)\n", tr.DroppedSpans)
	}
	for _, sp := range tr.Spans {
		// Scale the span onto the axis; a sub-column span still gets one
		// visible cell so instantaneous stages don't vanish.
		lo := int(float64(sp.Start-minStart) / float64(total) * float64(width))
		hi := int(float64(sp.End-minStart) / float64(total) * float64(width))
		lo = min(lo, width-1)
		if hi <= lo {
			hi = lo + 1
		}
		hi = min(hi, width)
		bar := strings.Repeat(" ", lo) + strings.Repeat("#", hi-lo) + strings.Repeat(" ", width-hi)
		fmt.Fprintf(out, "  %-*s %-*s [%s] %10s @%s%s\n",
			nameW, sp.Name, originW, sp.Origin, bar,
			fmtMS(sp.DurationMS), fmtMS(float64(sp.Start-minStart)/1e6), fmtAttrs(sp.Attrs))
	}
	if tr.Telemetry == nil {
		return
	}
	s := tr.Telemetry.Summary
	fmt.Fprintf(out, "telemetry: %d samples (%d retained), expanded %d, generated %d\n",
		tr.Telemetry.Total, len(tr.Telemetry.Samples), s.Expanded, s.Generated)
	fmt.Fprintf(out, "  rate peak %.0f/s final %.0f/s", s.PeakRate, s.FinalRate)
	if s.FinalIncumbent > 0 || s.FinalBestF > 0 {
		fmt.Fprintf(out, ", incumbent %d, best f %d", s.FinalIncumbent, s.FinalBestF)
	}
	if s.PeakOpen > 0 {
		fmt.Fprintf(out, ", peak open %d", s.PeakOpen)
	}
	fmt.Fprintln(out)
	if !withSamples {
		return
	}
	fmt.Fprintf(out, "  %9s %12s %12s %12s %10s %8s %10s\n",
		"offset", "expanded", "generated", "exp/s", "incumbent", "best f", "open")
	for _, sm := range tr.Telemetry.Samples {
		fmt.Fprintf(out, "  %7dms %12d %12d %12.0f %10d %8d %10d\n",
			sm.OffsetMS, sm.Expanded, sm.Generated, sm.ExpandedPerSec,
			sm.Incumbent, sm.BestF, sm.OpenLen)
	}
}

// fmtMS renders a millisecond quantity at a human scale.
func fmtMS(ms float64) string {
	switch {
	case ms >= 10000:
		return fmt.Sprintf("%.1fs", ms/1000)
	case ms >= 100:
		return fmt.Sprintf("%.0fms", ms)
	default:
		return fmt.Sprintf("%.2fms", ms)
	}
}

func fmtAttrs(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, attrs[k])
	}
	return b.String()
}

// metricSample is one parsed exposition line: a metric name, its raw
// label block (sans the le bucket label for histogram grouping), and the
// value.
type metricSample struct {
	name   string
	labels string // canonical `k="v",...` block, "" when unlabelled
	le     string // the le label of a _bucket line, "" otherwise
	value  float64
}

// metricFamily is one exposition family: the HELP/TYPE header plus its
// samples in scrape order.
type metricFamily struct {
	name    string
	help    string
	typ     string
	samples []metricSample
}

// parseExposition splits a Prometheus 0.0.4 text page into families in
// page order. It is tolerant — a line the sample parser rejects is
// dropped — and leaves validation to internal/bench's linter.
func parseExposition(text string) []metricFamily {
	byName := map[string]*metricFamily{}
	var order []*metricFamily
	family := func(name string) *metricFamily {
		if f := byName[name]; f != nil {
			return f
		}
		f := &metricFamily{name: name}
		byName[name] = f
		order = append(order, f)
		return f
	}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			if name, rest, ok := strings.Cut(strings.TrimPrefix(line, "# HELP "), " "); ok {
				family(name).help = rest
			}
		case strings.HasPrefix(line, "# TYPE "):
			if name, rest, ok := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " "); ok {
				family(name).typ = rest
			}
		case strings.HasPrefix(line, "#"):
		default:
			s, ok := parseSampleLine(line)
			if !ok {
				continue
			}
			// _bucket/_sum/_count samples belong to the histogram family
			// whose TYPE header named the bare metric.
			base := s.name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				trimmed := strings.TrimSuffix(s.name, suffix)
				if trimmed != s.name && byName[trimmed] != nil && byName[trimmed].typ == "histogram" {
					base = trimmed
					break
				}
			}
			family(base).samples = append(family(base).samples, s)
		}
	}
	out := make([]metricFamily, len(order))
	for i, f := range order {
		out[i] = *f
	}
	return out
}

// parseSampleLine reads one sample line with the exposition linter's
// parser, splitting the le label out of the block so histogram buckets
// group by their remaining labels.
func parseSampleLine(line string) (metricSample, bool) {
	name, labels, value, ok := bench.ParseSample(line)
	if !ok {
		return metricSample{}, false
	}
	v, err := strconv.ParseFloat(value, 64)
	if err != nil {
		return metricSample{}, false
	}
	s := metricSample{name: name, value: v}
	var kept []string
	for _, kv := range labels {
		if kv[0] == "le" {
			s.le = kv[1]
			continue
		}
		kept = append(kept, kv[0]+`="`+labelEscaper.Replace(kv[1])+`"`)
	}
	s.labels = strings.Join(kept, ",")
	return s, true
}

// labelEscaper restores the exposition escapes the parser undid.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// printMetrics renders a parsed exposition: plain counters and gauges as
// aligned name/value lines, histograms as one row per label set with the
// count, sum, mean, and quantiles interpolated from the buckets.
func printMetrics(out io.Writer, text string) {
	families := parseExposition(text)
	for _, f := range families {
		if f.typ != "histogram" {
			for _, s := range f.samples {
				label := s.name
				if s.labels != "" {
					label += "{" + s.labels + "}"
				}
				fmt.Fprintf(out, "%-58s %s\n", label, fmtValue(s.value))
			}
			continue
		}
		printHistogram(out, f)
	}
}

// histSeries is the bucket/sum/count triple of one label set.
type histSeries struct {
	labels string
	bounds []float64 // upper bounds in page order, +Inf last
	cums   []float64 // cumulative counts per bound
	sum    float64
	count  float64
}

func printHistogram(out io.Writer, f metricFamily) {
	byLabels := map[string]*histSeries{}
	var order []*histSeries
	series := func(labels string) *histSeries {
		if h := byLabels[labels]; h != nil {
			return h
		}
		h := &histSeries{labels: labels}
		byLabels[labels] = h
		order = append(order, h)
		return h
	}
	for _, s := range f.samples {
		h := series(s.labels)
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			bound := parseBound(s.le)
			h.bounds = append(h.bounds, bound)
			h.cums = append(h.cums, s.value)
		case strings.HasSuffix(s.name, "_sum"):
			h.sum = s.value
		case strings.HasSuffix(s.name, "_count"):
			h.count = s.value
		}
	}
	for _, h := range order {
		label := f.name
		if h.labels != "" {
			label += "{" + h.labels + "}"
		}
		if h.count == 0 {
			fmt.Fprintf(out, "%-58s count=0\n", label)
			continue
		}
		fmt.Fprintf(out, "%-58s count=%.0f sum=%s mean=%s p50~%s p90~%s p99~%s\n",
			label, h.count, fmtSeconds(h.sum), fmtSeconds(h.sum/h.count),
			fmtSeconds(h.quantile(0.50)), fmtSeconds(h.quantile(0.90)), fmtSeconds(h.quantile(0.99)))
	}
}

// quantile linearly interpolates q within the first bucket whose
// cumulative count reaches q*count; an answer in the +Inf bucket clamps
// to the last finite bound (the histogram cannot resolve beyond it).
func (h *histSeries) quantile(q float64) float64 {
	target := q * h.count
	prevBound, prevCum := 0.0, 0.0
	for i, cum := range h.cums {
		if cum >= target {
			bound := h.bounds[i]
			if bound > 1e300 { // the +Inf bucket
				return prevBound
			}
			if cum == prevCum {
				return bound
			}
			return prevBound + (bound-prevBound)*(target-prevCum)/(cum-prevCum)
		}
		prevBound, prevCum = h.bounds[i], cum
	}
	return prevBound
}

func parseBound(le string) float64 {
	if le == "+Inf" {
		return 1e308
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		return 1e308
	}
	return v
}

// fmtValue renders a counter/gauge value without trailing float noise.
func fmtValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// fmtSeconds renders a seconds quantity at a human scale.
func fmtSeconds(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 0.001:
		return fmt.Sprintf("%.1fms", s*1000)
	default:
		return fmt.Sprintf("%.0fµs", s*1e6)
	}
}

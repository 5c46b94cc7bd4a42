package bench

// A hand-rolled linter for the Prometheus text exposition format
// (version 0.0.4) — the format internal/server's /metrics emits. The
// repository takes no dependencies, so the checks a `promtool check
// metrics` would run live here instead: LintMetrics validates a whole
// scrape page and returns every violation. cmd/icpp98bench exposes it as
// -checkmetrics (URL or file); CI points that at a live daemon's /metrics,
// and the server's concurrent scrape-and-churn test holds every scrape to
// it, so a malformed metric family fails before a real scraper chokes on
// it. Serving load itself is measured by `bash perf/run.sh --workload
// serve-warm|serve-cold`.

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var (
	promMetricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// promTypes are the metric types the 0.0.4 format defines.
var promTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true,
}

// lintFamily tracks one metric family across the page.
type lintFamily struct {
	name      string
	typ       string
	hasHelp   bool
	hasType   bool
	samples   int
	closed    bool // a different family's samples appeared after ours
	histogram *lintHistogram
}

// lintHistogram accumulates the bucket/sum/count series of a histogram
// family, per label set.
type lintHistogram struct {
	series map[string]*lintHistSeries
	order  []string
}

type lintHistSeries struct {
	les      []float64
	cums     []float64
	rawLEs   []string
	hasInf   bool
	hasSum   bool
	hasCount bool
	count    float64
}

// LintMetrics validates one Prometheus text-exposition page and returns
// the violations, empty when the page is clean. Beyond line syntax it
// enforces the family-level contract scrapers depend on: TYPE before the
// first sample and at most once, one contiguous block per family, no
// duplicate series, and coherent histograms (ascending le, cumulative
// counts non-decreasing, a +Inf bucket matching _count, a _sum).
func LintMetrics(text string) []string {
	var problems []string
	problem := func(line int, format string, args ...any) {
		problems = append(problems, fmt.Sprintf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}
	families := map[string]*lintFamily{}
	var familyOrder []string
	family := func(name string) *lintFamily {
		if f := families[name]; f != nil {
			return f
		}
		f := &lintFamily{name: name}
		families[name] = f
		familyOrder = append(familyOrder, name)
		return f
	}
	seen := map[string]int{} // series (name + canonical labels) → first line
	current := ""            // family of the preceding sample line

	for i, line := range strings.Split(text, "\n") {
		n := i + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, _, ok := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			if !ok || !promMetricNameRe.MatchString(name) {
				problem(n, "malformed HELP line: %s", line)
				continue
			}
			f := family(name)
			if f.hasHelp {
				problem(n, "duplicate HELP for %s", name)
			}
			if f.samples > 0 {
				problem(n, "HELP for %s after its samples", name)
			}
			f.hasHelp = true
		case strings.HasPrefix(line, "# TYPE "):
			name, typ, ok := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			typ = strings.TrimSpace(typ)
			if !ok || !promMetricNameRe.MatchString(name) {
				problem(n, "malformed TYPE line: %s", line)
				continue
			}
			if !promTypes[typ] {
				problem(n, "unknown metric type %q for %s", typ, name)
			}
			f := family(name)
			if f.hasType {
				problem(n, "duplicate TYPE for %s", name)
			}
			if f.samples > 0 {
				problem(n, "TYPE for %s after its samples", name)
			}
			f.hasType = true
			f.typ = typ
		case strings.HasPrefix(line, "#"):
			// Plain comments are legal and ignored.
		default:
			name, labels, value, ok := ParseSample(line)
			if !ok {
				problem(n, "unparseable sample line: %s", line)
				continue
			}
			if !promMetricNameRe.MatchString(name) {
				problem(n, "invalid metric name %q", name)
			}
			canonical, lerr := canonicalLabels(labels)
			if lerr != "" {
				problem(n, "%s", lerr)
			}
			if _, err := parsePromValue(value); err != nil {
				problem(n, "invalid sample value %q for %s", value, name)
			}
			// Resolve _bucket/_sum/_count to the declaring histogram family.
			base := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				trimmed := strings.TrimSuffix(name, suffix)
				if trimmed != name && families[trimmed] != nil && families[trimmed].typ == "histogram" {
					base = trimmed
					break
				}
			}
			f := families[base]
			if f == nil {
				problem(n, "sample for %s without a preceding TYPE header", name)
				f = family(base)
			} else if f.closed {
				// A family body resuming after another family's samples is
				// the interleaving scrapers reject.
				problem(n, "samples for %s are not contiguous (family resumed)", base)
			}
			if current != "" && current != base {
				if prev := families[current]; prev != nil {
					prev.closed = true
				}
			}
			current = base
			f.samples++
			series := name + "{" + canonical + "}"
			if prev, dup := seen[series]; dup {
				problem(n, "duplicate series %s (first at line %d)", series, prev)
			} else {
				seen[series] = n
			}
			if f.typ == "histogram" {
				lintFoldHistogram(f, name, labels, value, n, problem)
			}
		}
	}

	// Family-level wrap-up in page order.
	for _, name := range familyOrder {
		f := families[name]
		if f.hasType && f.samples == 0 {
			problems = append(problems, fmt.Sprintf("family %s: TYPE header with no samples", name))
		}
		if f.histogram == nil {
			continue
		}
		for _, key := range f.histogram.order {
			s := f.histogram.series[key]
			where := name
			if key != "" {
				where += "{" + key + "}"
			}
			if !s.hasInf {
				problems = append(problems, fmt.Sprintf("histogram %s: no +Inf bucket", where))
			}
			if !s.hasSum {
				problems = append(problems, fmt.Sprintf("histogram %s: missing _sum", where))
			}
			if !s.hasCount {
				problems = append(problems, fmt.Sprintf("histogram %s: missing _count", where))
			} else if s.hasInf && s.count != s.cums[len(s.cums)-1] {
				problems = append(problems, fmt.Sprintf(
					"histogram %s: _count %g != +Inf bucket %g", where, s.count, s.cums[len(s.cums)-1]))
			}
			for i := 1; i < len(s.les); i++ {
				if s.les[i] <= s.les[i-1] {
					problems = append(problems, fmt.Sprintf(
						"histogram %s: le=%q out of order after le=%q", where, s.rawLEs[i], s.rawLEs[i-1]))
				}
				if s.cums[i] < s.cums[i-1] {
					problems = append(problems, fmt.Sprintf(
						"histogram %s: bucket le=%q count %g below preceding bucket's %g (not cumulative)",
						where, s.rawLEs[i], s.cums[i], s.cums[i-1]))
				}
			}
		}
	}
	return problems
}

// lintFoldHistogram records one histogram-family sample for wrap-up.
func lintFoldHistogram(f *lintFamily, name string, labels [][2]string, value string, line int, problem func(int, string, ...any)) {
	if f.histogram == nil {
		f.histogram = &lintHistogram{series: map[string]*lintHistSeries{}}
	}
	le := ""
	var rest [][2]string
	for _, kv := range labels {
		if kv[0] == "le" {
			le = kv[1]
			continue
		}
		rest = append(rest, kv)
	}
	key, _ := canonicalLabels(rest)
	s := f.histogram.series[key]
	if s == nil {
		s = &lintHistSeries{}
		f.histogram.series[key] = s
		f.histogram.order = append(f.histogram.order, key)
	}
	v, _ := parsePromValue(value)
	switch {
	case strings.HasSuffix(name, "_bucket"):
		if le == "" {
			problem(line, "histogram bucket %s without an le label", name)
			return
		}
		bound, err := parsePromValue(le)
		if err != nil {
			problem(line, "histogram bucket %s: unparseable le=%q", name, le)
			return
		}
		if math.IsInf(bound, +1) {
			s.hasInf = true
		}
		s.les = append(s.les, bound)
		s.cums = append(s.cums, v)
		s.rawLEs = append(s.rawLEs, le)
	case strings.HasSuffix(name, "_sum"):
		s.hasSum = true
	case strings.HasSuffix(name, "_count"):
		s.hasCount = true
		s.count = v
	default:
		problem(line, "sample %s under histogram family %s is none of _bucket/_sum/_count", name, f.name)
	}
}

// ParseSample splits an exposition sample line, `name{labels} value
// [timestamp]`, into its parts, with the label pairs in page order and
// their values unescaped. ok is false for a malformed line. The linter and
// the CLI's metrics renderer share it.
func ParseSample(line string) (name string, labels [][2]string, value string, ok bool) {
	rest := line
	brace := strings.IndexByte(rest, '{')
	space := strings.IndexAny(rest, " \t")
	if space < 0 && brace < 0 {
		return "", nil, "", false
	}
	if brace >= 0 && (space < 0 || brace < space) {
		name = rest[:brace]
		rest = rest[brace+1:]
		var lerr bool
		labels, rest, lerr = lintParseLabels(rest)
		if lerr {
			return "", nil, "", false
		}
	} else {
		name = rest[:space]
		rest = rest[space:]
	}
	fields := strings.Fields(rest)
	// A sample line is `value` or `value timestamp`.
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, "", false
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, "", false
		}
	}
	return name, labels, fields[0], true
}

// lintParseLabels consumes `k="v",...}` and returns the pairs plus the
// remainder after the closing brace.
func lintParseLabels(rest string) (labels [][2]string, after string, malformed bool) {
	for {
		rest = strings.TrimLeft(rest, " \t")
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], false
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, "", true
		}
		key := strings.TrimSpace(rest[:eq])
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return nil, "", true
		}
		rest = rest[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				rest = rest[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return nil, "", true
		}
		labels = append(labels, [2]string{key, val.String()})
		rest = strings.TrimLeft(rest, " \t")
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
		}
	}
}

// canonicalLabels sorts label pairs into a stable `k="v",...` key and
// validates the label names; the error string is empty when clean.
func canonicalLabels(labels [][2]string) (string, string) {
	errMsg := ""
	parts := make([]string, 0, len(labels))
	seen := map[string]bool{}
	for _, kv := range labels {
		if !promLabelNameRe.MatchString(kv[0]) {
			errMsg = fmt.Sprintf("invalid label name %q", kv[0])
		}
		if seen[kv[0]] {
			errMsg = fmt.Sprintf("duplicate label %q", kv[0])
		}
		seen[kv[0]] = true
		parts = append(parts, kv[0]+`=`+strconv.Quote(kv[1]))
	}
	sort.Strings(parts)
	return strings.Join(parts, ","), errMsg
}

// parsePromValue parses an exposition float: Go syntax plus the
// Prometheus spellings +Inf, -Inf, and NaN.
func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// Command perf is the repository's benchmark. It runs four workloads —
// exact and ε-bounded search proofs on the paper's random graphs, and the
// job daemon serving cached and fresh requests — checks every answer, and
// prints each end-to-end metric as "<workload> <metric> <value> <unit>",
// then one JSON summary line. With -trace 1 it makes the traced run
// instead and prints the per-layer metrics. See README.md.
//
//	go run . -workload paper-exact -seed 1998 -seconds 30 -trace 0
//	go run . compare -base a.json... -new b.json...
//	go run . golden
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// maxFailureMessages bounds the messages a result keeps; every failure is
// still counted.
const maxFailureMessages = 20

// result is the outcome of one workload run.
type result struct {
	Name      string    `json:"name"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Gates     int       `json:"gate_failures"`
	Failures  []string  `json:"failures,omitempty"`
	SetupS    []float64 `json:"setup_s_samples,omitempty"`
	// HostProbeMS is the warm-up's median probe round: how fast the host
	// ran this run's memory-bound work, to tell a slow host from slow code.
	HostProbeMS float64   `json:"host_probe_ms"`
	Metrics     metricSet `json:"metrics"`
	// Layers carries the traced run's raw per-call histograms.
	Layers *searchLayers `json:"layers,omitempty"`

	spans []span
}

func newResult(name string) *result { return &result{Name: name, Metrics: metricSet{}} }

// fail records a failed correctness gate; any one fails the run.
func (r *result) fail(format string, args ...any) {
	r.Gates++
	if len(r.Failures) < maxFailureMessages {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// addSetup reports the median of the set-ups the run made.
func (r *result) addSetup() { r.Metrics.add("setup_s", quantile(r.SetupS, 0.5), "s") }

type runOptions struct {
	seed    uint64
	seconds float64
	trace   bool
	tmp     string
	golden  *golden
}

func (o runOptions) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// warmup is how long a workload keeps the CPUs busy before measuring.
func (o runOptions) warmup() time.Duration { return time.Duration(float64(o.duration()) * warmupShare) }

// setupsPerRun is how many times a run sets its workload up; setup_s is
// their median.
const setupsPerRun = 5

var workloads = []struct {
	name string
	run  func(runOptions) *result
}{
	{paperExact.name, func(o runOptions) *result { return runSearch(paperExact, o) }},
	{paperApprox.name, func(o runOptions) *result { return runSearch(paperApprox, o) }},
	{serveWarm.name, func(o runOptions) *result { return runServe(serveWarm, o) }},
	{serveCold.name, func(o runOptions) *result { return runServe(serveCold, o) }},
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "golden":
			os.Exit(goldenMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

// record is the JSON record of one invocation that -json writes and
// compare reads.
type record struct {
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	Host      host      `json:"host"`
	Workloads []*result `json:"workloads"`
}

type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	secs := fs.Float64("seconds", 30, "seconds each workload runs, warm-up included")
	trace := fs.Int("trace", 0, "1 makes the traced run and reports the per-layer metrics")
	jsonOut := fs.String("json", "", "write the run's JSON record to this file")
	spansOut := fs.String("spans", "", "write the traced run's spans to this file, one JSON object a line")
	tmp := fs.String("tmp", os.TempDir(), "directory for the serve-cold job store")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *secs <= 0 {
		fmt.Fprintln(os.Stderr, "perf: -trace takes 0 or 1 and -seconds must be positive")
		return 2
	}
	g, err := loadGolden(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	o := runOptions{seed: *seed, seconds: *secs, trace: *trace == 1, tmp: *tmp, golden: g}

	rec := record{Seed: *seed, Seconds: *secs, Trace: o.trace, Host: hostInfo()}
	for _, w := range workloads {
		if *workload == "all" || *workload == w.name {
			r := w.run(o)
			r.Correct = r.Gates == 0 && r.Failed == 0
			rec.Workloads = append(rec.Workloads, r)
			printResult(stdout, r)
		}
	}
	if len(rec.Workloads) == 0 {
		fmt.Fprintf(os.Stderr, "perf: unknown workload %q (want all, %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			return 1
		}
	}
	if *spansOut != "" {
		if err := writeSpans(*spansOut, rec.Workloads); err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			return 1
		}
	}

	sum := summary{Correct: true, Metrics: metricSet{}}
	for _, r := range rec.Workloads {
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for name, m := range r.Metrics {
			if len(rec.Workloads) > 1 {
				name = r.Name + "/" + name
			}
			sum.Metrics[name] = m
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !sum.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func hostInfo() host {
	return host{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
}

// printResult prints a workload's metrics, sorted by name, and its
// failures on standard error.
func printResult(w io.Writer, r *result) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %s\n", r.Name, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Fprintf(os.Stderr, "%s: attempted %d, failed %d, gate failures %d\n", r.Name, r.Attempted, r.Failed, r.Gates)
	for _, f := range r.Failures {
		fmt.Fprintf(os.Stderr, "%s: FAIL %s\n", r.Name, f)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeSpans(path string, rs []*result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range rs {
		for _, s := range r.spans {
			line := struct {
				Workload string `json:"workload"`
				span
			}{r.Name, s}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// cmdClient talks to a running icpp98d daemon with the wire types of
// internal/server — the same structs the daemon decodes, so client and
// server cannot drift apart:
//
//	icpp98 client -addr http://localhost:8098 engines
//	icpp98 client submit -engine astar -procs ring:3 g.tg
//	icpp98 client submit -engines astar,dfbb,bnb -wait g.tg   # portfolio
//	icpp98 client status job-1
//	icpp98 client watch job-1                                 # stream progress
//	icpp98 client result -gantt job-1
//	icpp98 client cancel job-1
//	icpp98 client trace job-1                                 # lifecycle timeline
//	icpp98 client workers                                     # cluster workers
func cmdClient(args []string) {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8098", "daemon base URL")
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) == 0 {
		fatal(fmt.Errorf("client needs a subcommand: submit | status | watch | result | cancel | trace | list | engines | health | metrics | workers"))
	}
	c := &client{base: strings.TrimRight(*addr, "/")}
	switch rest[0] {
	case "submit":
		c.submit(rest[1:])
	case "status":
		c.status(rest[1:])
	case "watch":
		c.watch(rest[1:])
	case "result":
		c.result(rest[1:])
	case "cancel":
		c.cancel(rest[1:])
	case "trace":
		c.trace(rest[1:])
	case "list":
		c.list()
	case "engines":
		c.engines()
	case "health":
		c.health()
	case "metrics":
		c.metrics(rest[1:])
	case "workers":
		c.workers()
	default:
		fatal(fmt.Errorf("unknown client subcommand %q", rest[0]))
	}
}

type client struct {
	base string
}

// do performs one request and decodes the JSON response into out (skipped
// when out is nil). Any non-2xx response is surfaced as the server's error
// message.
func (c *client) do(method, path string, body, out any) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		// Every /v1 error is a {code, message, job_id?} envelope; surface
		// the machine-readable code alongside the message so scripts can
		// match on it (see docs/API.md for the code inventory).
		var e server.ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Message != "" {
			if e.JobID != "" {
				fatal(fmt.Errorf("%s (%s, job %s): %s", resp.Status, e.Code, e.JobID, e.Message))
			}
			fatal(fmt.Errorf("%s (%s): %s", resp.Status, e.Code, e.Message))
		}
		fatal(fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data))))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			fatal(err)
		}
	}
}

// submit reads a graph file (or stdin), posts the job, and either prints
// the job ID or — with -wait — polls until the job is terminal and prints
// the result like `icpp98 schedule` would.
func (c *client) submit(args []string) {
	fs := flag.NewFlagSet("client submit", flag.ExitOnError)
	engName := fs.String("engine", "astar", "registry engine to run")
	engines := fs.String("engines", "", "comma list of engines to race as a portfolio (overrides -engine)")
	procs := fs.String("procs", "", "target system spec, e.g. ring:3 (default complete:V)")
	eps := fs.Float64("eps", 0, "ε for the ε-capable engines")
	budget := fs.Int64("budget", 0, "expansion budget (0 = unlimited)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget (0 = none)")
	ppes := fs.Int("ppes", 0, "PPEs for the parallel engine")
	wait := fs.Bool("wait", false, "poll until the job finishes and print the result")
	gantt := fs.Bool("gantt", true, "with -wait, print the Gantt chart")
	noCache := fs.Bool("no-cache", false, "bypass the daemon's schedule cache and force a fresh solve")
	fs.Parse(args)

	// The graph travels as the native text format: the daemon parses and
	// validates it server-side, so the client needs no graph code at all.
	var text []byte
	var err error
	if fs.NArg() == 0 || fs.Arg(0) == "-" {
		text, err = io.ReadAll(os.Stdin)
	} else {
		text, err = os.ReadFile(fs.Arg(0))
	}
	if err != nil {
		fatal(err)
	}
	req := server.SubmitRequest{
		GraphText: string(text),
		Engine:    *engName,
		Config: server.JobConfig{
			Epsilon:     *eps,
			MaxExpanded: *budget,
			TimeoutMS:   timeout.Milliseconds(),
			PPEs:        *ppes,
		},
	}
	if strings.HasSuffix(fs.Arg(0), ".stg") {
		req.GraphText, req.GraphSTG = "", string(text)
	}
	if *engines != "" {
		req.Engine = ""
		for _, name := range strings.Split(*engines, ",") {
			if name = strings.TrimSpace(name); name != "" {
				req.Engines = append(req.Engines, name)
			}
		}
	}
	if *procs != "" {
		spec, err := json.Marshal(*procs)
		if err != nil {
			fatal(err)
		}
		req.System = spec
	}
	if *noCache {
		req.Cache = server.CacheBypass
	}

	var sub server.SubmitResponse
	c.do(http.MethodPost, "/v1/jobs", req, &sub)
	if !*wait {
		fmt.Println(sub.ID)
		return
	}

	for {
		var st server.JobStatus
		c.do(http.MethodGet, "/v1/jobs/"+sub.ID, nil, &st)
		if st.State != server.StateQueued && st.State != server.StateRunning {
			if st.State == server.StateFailed {
				fatal(fmt.Errorf("job %s failed: %s", st.ID, st.Error))
			}
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	format := ""
	if *gantt {
		format = "?format=gantt"
	}
	c.printResult(sub.ID, format)
}

func (c *client) printResult(id, format string) {
	if format != "" {
		// The Gantt form is text; fetch and print it verbatim.
		resp, err := http.Get(c.base + "/v1/jobs/" + id + "/result" + format)
		if err != nil {
			fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode/100 != 2 {
			fatal(fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data))))
		}
		os.Stdout.Write(data)
		return
	}
	var res server.JobResult
	c.do(http.MethodGet, "/v1/jobs/"+id+"/result", nil, &res)
	printJSON(res)
}

func (c *client) status(args []string) {
	if len(args) != 1 {
		fatal(fmt.Errorf("status needs a job id"))
	}
	var st server.JobStatus
	c.do(http.MethodGet, "/v1/jobs/"+args[0], nil, &st)
	printJSON(st)
}

// watch streams the daemon's NDJSON progress feed to stdout until the job
// reaches a terminal state. A dropped connection is not fatal: the loop
// reconnects with the last seen sequence number as Last-Event-ID, so the
// resumed stream carries on with strictly newer snapshots (the store owns
// the counter) instead of the watch dying mid-solve.
func (c *client) watch(args []string) {
	if len(args) != 1 {
		fatal(fmt.Errorf("watch needs a job id"))
	}
	if err := watchEvents(c.base, args[0], os.Stdout); err != nil {
		fatal(err)
	}
}

// watchEvents is the reconnecting stream loop behind `client watch`,
// factored out for tests. It returns nil once a terminal snapshot was
// printed, and an error when the job is unknown or the daemon stays
// unreachable across the retry budget.
func watchEvents(base, id string, out io.Writer) error {
	var lastSeq int64
	retries := 0
	for {
		before := lastSeq
		terminal, err := streamEventsOnce(base, id, &lastSeq, out)
		if terminal {
			return nil
		}
		if errors.Is(err, errJobGone) {
			// Unknown or evicted: reconnecting cannot bring the job back.
			return fmt.Errorf("watch %s: %w", id, err)
		}
		if lastSeq > before {
			// The connection made progress before dropping; only
			// consecutive fruitless reconnects count against the budget,
			// so a long watch survives any number of isolated drops.
			retries = 0
		}
		if err != nil && retries >= 5 {
			return fmt.Errorf("watch %s: giving up after %d reconnects: %w", id, retries, err)
		}
		retries++
		time.Sleep(time.Duration(retries) * 200 * time.Millisecond)
	}
}

// errJobGone marks a watch 404: the job is unknown or already evicted.
var errJobGone = errors.New("job not found")

// streamEventsOnce opens one /events connection (resuming past lastSeq),
// prints each line, and reports whether a terminal snapshot arrived.
func streamEventsOnce(base, id string, lastSeq *int64, out io.Writer) (bool, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return false, err
	}
	if *lastSeq > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(*lastSeq, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(resp.Body)
		msg := strings.TrimSpace(string(data))
		if resp.StatusCode == http.StatusNotFound {
			return false, fmt.Errorf("%w: %s", errJobGone, msg)
		}
		return false, fmt.Errorf("%s: %s", resp.Status, msg)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var st server.JobStatus
		if json.Unmarshal(line, &st) != nil {
			continue
		}
		if st.Seq > *lastSeq {
			*lastSeq = st.Seq
		}
		fmt.Fprintf(out, "%s\n", line)
		if st.State != server.StateQueued && st.State != server.StateRunning {
			return true, nil
		}
	}
	err = sc.Err()
	if err == nil {
		// The server closed the stream without a terminal snapshot —
		// shutdown mid-stream; reconnect like any other drop.
		err = io.ErrUnexpectedEOF
	}
	return false, err
}

func (c *client) result(args []string) {
	fs := flag.NewFlagSet("client result", flag.ExitOnError)
	gantt := fs.Bool("gantt", false, "fetch the text Gantt chart instead of JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("result needs a job id"))
	}
	format := ""
	if *gantt {
		format = "?format=gantt"
	}
	c.printResult(fs.Arg(0), format)
}

func (c *client) cancel(args []string) {
	if len(args) != 1 {
		fatal(fmt.Errorf("cancel needs a job id"))
	}
	var st server.JobStatus
	c.do(http.MethodDelete, "/v1/jobs/"+args[0], nil, &st)
	printJSON(st)
}

func (c *client) list() {
	var jobs server.JobList
	c.do(http.MethodGet, "/v1/jobs", nil, &jobs)
	for _, st := range jobs.Jobs {
		fmt.Printf("%-10s %-10s %-24s expanded=%d", st.ID, st.State, strings.Join(st.Engines, ","), st.Progress.Expanded)
		if st.Length > 0 {
			fmt.Printf(" length=%d optimal=%v", st.Length, st.Optimal)
		}
		fmt.Println()
	}
}

func (c *client) engines() {
	var engines []server.EngineInfo
	c.do(http.MethodGet, "/v1/engines", nil, &engines)
	fmt.Printf("%-10s %-12s %s\n", "engine", "paper", "description")
	for _, e := range engines {
		fmt.Printf("%-10s %-12s %s\n", e.Name, e.Section, e.Description)
	}
}

func (c *client) health() {
	var h server.Health
	c.do(http.MethodGet, "/v1/healthz", nil, &h)
	printJSON(h)
}

// trace fetches a job's lifecycle trace and renders it as an ASCII
// timeline — every span as a bar on the job's shared time axis, remote
// worker and coordinator spans included — followed by the sampled search
// telemetry roll-up.
func (c *client) trace(args []string) {
	fs := flag.NewFlagSet("client trace", flag.ExitOnError)
	raw := fs.Bool("json", false, "print the raw JSON trace instead of the timeline")
	samples := fs.Bool("samples", false, "also print every retained telemetry sample")
	width := fs.Int("width", 60, "timeline bar width in columns")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("trace needs a job id"))
	}
	var tr server.TraceResponse
	c.do(http.MethodGet, "/v1/jobs/"+fs.Arg(0)+"/trace", nil, &tr)
	if *raw {
		printJSON(tr)
		return
	}
	printTrace(os.Stdout, tr, *width, *samples)
}

// metrics fetches the daemon's Prometheus exposition and pretty-prints it:
// histogram families as one count/sum/quantiles row per label set, plain
// counters and gauges aligned. -raw restores the verbatim scrape bytes. A
// non-200 scrape (or an unreachable daemon) exits non-zero.
func (c *client) metrics(args []string) {
	fs := flag.NewFlagSet("client metrics", flag.ExitOnError)
	raw := fs.Bool("raw", false, "print the text exposition verbatim (scraper bytes)")
	fs.Parse(args)
	resp, err := http.Get(c.base + "/metrics")
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		fatal(fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data))))
	}
	if *raw {
		os.Stdout.Write(data)
		return
	}
	printMetrics(os.Stdout, string(data))
}

// workers lists the cluster workers registered with a -cluster daemon.
func (c *client) workers() {
	var list cluster.WorkerList
	c.do(http.MethodGet, "/v1/workers", nil, &list)
	fmt.Printf("%-12s %-16s %8s %7s %9s %14s\n", "worker", "name", "capacity", "leased", "jobs done", "last seen")
	for _, w := range list.Workers {
		fmt.Printf("%-12s %-16s %8d %7d %9d %14s\n",
			w.ID, w.Name, w.Capacity, w.Leased, w.JobsDone, fmt.Sprintf("%dms ago", w.LastSeenMS))
	}
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

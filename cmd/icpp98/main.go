// Command icpp98 schedules task-graph files with the algorithms of the
// paper and inspects graphs and schedules:
//
//	icpp98 gen -v 20 -ccr 1.0 -seed 7 > g.tg        # emit a §4.1 random DAG
//	icpp98 analyze g.tg                             # levels, CP, CCR
//	icpp98 engines                                  # list the engine registry
//	icpp98 schedule -engine astar -procs ring:3 g.tg # optimal schedule + Gantt
//	icpp98 schedule -engine aeps -eps 0.2 g.tg      # bounded-suboptimal
//	icpp98 schedule -engine parallel -ppes 4 g.tg   # parallel A* (Paragon model)
//	icpp98 schedule -engine native -workers 4 g.tg  # multi-core work-stealing A*
//	icpp98 schedule -engine dfbb g.tg               # depth-first B&B (low memory)
//	icpp98 schedule -engine bnb g.tg                # Chen & Yu baseline
//	icpp98 schedule -engine astar,dfbb,bnb g.tg     # portfolio race of engines
//	icpp98 schedule -hplus -procs complete:8 big.stg # large graphs (v > 64): tighter heuristic
//	icpp98 schedule -algo list g.tg                 # list-scheduling heuristic
//	icpp98 example                                  # the paper's Figure 1 demo
//	icpp98 tree -ppes 2 g.tg                        # Figure 3/5 search tree
//	icpp98 heuristics g.tg                          # heuristic-vs-optimal study
//	icpp98 dot g.tg                                 # Graphviz export
//	icpp98 convert -to stg g.tg > g.stg             # Standard Task Graph export
//	icpp98 client submit -wait g.tg                 # solve on an icpp98d daemon
//
// -engine selects any engine registered in internal/engine (a comma list
// races them as a portfolio and reports the winner); -algo remains for the
// polynomial-time list heuristics (list, etf, mcp, dls) and as a shorthand
// for engine names. Graph files use the text format of internal/taskgraph
// (graph/node/edge lines); files ending in .stg are read as Standard Task
// Graph instances. The -procs flag accepts complete:N, ring:N, chain:N,
// star:N, mesh:RxC, torus:RxC, hypercube:D (default complete:V).
//
// The client subcommand (see client.go) submits, watches, and cancels jobs
// on a running icpp98d network daemon instead of solving in-process.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/listsched"
	"repro/internal/procgraph"
	"repro/internal/schedule"
	"repro/internal/solverpool"
	"repro/internal/stg"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "analyze":
		cmdAnalyze(os.Args[2:])
	case "schedule":
		cmdSchedule(os.Args[2:])
	case "engines":
		cmdEngines()
	case "example":
		cmdExample()
	case "tree":
		cmdTree(os.Args[2:])
	case "heuristics":
		cmdHeuristics(os.Args[2:])
	case "dot":
		cmdDot(os.Args[2:])
	case "convert":
		cmdConvert(os.Args[2:])
	case "client":
		cmdClient(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: icpp98 <gen|analyze|engines|schedule|example|tree|heuristics|dot|convert|client> [flags] [file]")
	os.Exit(2)
}

// cmdEngines prints the engine registry: every name -engine accepts.
func cmdEngines() {
	fmt.Printf("%-10s %-12s %s\n", "engine", "paper", "description")
	for _, e := range engine.All() {
		section, desc := engine.Describe(e)
		fmt.Printf("%-10s %-12s %s\n", e.Name(), section, desc)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "icpp98:", err)
	os.Exit(1)
}

func loadGraph(args []string) *taskgraph.Graph {
	var r *os.File
	isSTG := false
	if len(args) == 0 || args[0] == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(args[0])
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
		isSTG = strings.HasSuffix(args[0], ".stg")
	}
	var g *taskgraph.Graph
	var err error
	if isSTG {
		g, err = stg.Read(r, stg.ImportOptions{})
	} else {
		g, err = taskgraph.Parse(r)
	}
	if err != nil {
		fatal(err)
	}
	return g
}

// parseSystem resolves a -procs spec through the shared parser the daemon's
// submit endpoint also uses (procgraph.ParseSpec).
func parseSystem(spec string, v int) *procgraph.System {
	sys, err := procgraph.ParseSpec(spec, v)
	if err != nil {
		fatal(err)
	}
	return sys
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	v := fs.Int("v", 20, "number of tasks")
	ccr := fs.Float64("ccr", 1.0, "communication-to-computation ratio")
	seed := fs.Uint64("seed", 1, "random seed")
	kind := fs.String("kind", "random", "random | gauss | fft | forkjoin | wavefront")
	fs.Parse(args)

	var g *taskgraph.Graph
	var err error
	switch *kind {
	case "random":
		g, err = gen.Random(gen.RandomConfig{V: *v, CCR: *ccr, Seed: *seed})
	case "gauss":
		g, err = gen.GaussianElimination(*v, 40, int32(40**ccr))
	case "fft":
		g, err = gen.FFT(*v, 40, int32(40**ccr))
	case "forkjoin":
		g, err = gen.ForkJoin(*v, 3, 40, int32(40**ccr))
	case "wavefront":
		g, err = gen.Wavefront(*v, 40, int32(40**ccr))
	default:
		err = fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		fatal(err)
	}
	if err := taskgraph.Format(os.Stdout, g); err != nil {
		fatal(err)
	}
}

func cmdAnalyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	fs.Parse(args)
	g := loadGraph(fs.Args())
	tl := g.TLevels()
	bl := g.BLevels()
	sl := g.StaticLevels()
	fmt.Println(g)
	fmt.Printf("%-10s %8s %8s %8s %8s\n", "node", "weight", "sl", "b-level", "t-level")
	for n := int32(0); int(n) < g.NumNodes(); n++ {
		fmt.Printf("%-10s %8d %8d %8d %8d\n", g.Label(n), g.Weight(n), sl[n], bl[n], tl[n])
	}
	cp, path := g.CriticalPath()
	labels := make([]string, len(path))
	for i, n := range path {
		labels[i] = g.Label(n)
	}
	fmt.Printf("critical path: length=%d via %s\n", cp, strings.Join(labels, " -> "))
}

func cmdSchedule(args []string) {
	fs := flag.NewFlagSet("schedule", flag.ExitOnError)
	engines := strings.Join(engine.Names(), " | ")
	engName := fs.String("engine", "", "registry engine: "+engines+"; a comma list races them as a portfolio")
	algo := fs.String("algo", "", "heuristic (list | etf | mcp | dls) or an engine-name shorthand; default astar")
	procs := fs.String("procs", "", "target system, e.g. complete:8, ring:3, mesh:2x4 (default complete:V)")
	eps := fs.Float64("eps", 0.2, "ε for the aeps engine")
	ppesN := fs.Int("ppes", 4, "PPEs for the parallel engine")
	workersN := fs.Int("workers", 0, "workers for the native engine (0 = one per core)")
	budget := fs.Int64("budget", 0, "expansion budget (0 = unlimited)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget (0 = none)")
	noPrune := fs.Bool("no-pruning", false, "disable the §3.2 prunings")
	hplus := fs.Bool("hplus", false, "use the strengthened admissible heuristic (recommended for v > 64)")
	hfunc := fs.String("hfunc", "", "heuristic tier: paper | plus | load (overrides -hplus)")
	disableList := fs.String("disable", "", "comma list of prunings to switch off: iso | equivalence | equivalent-tasks | fto | upper-bound | priority-order | duplicate-check | all")
	gantt := fs.Bool("gantt", true, "print the Gantt chart")
	fs.Parse(args)
	g := loadGraph(fs.Args())
	sys := parseSystem(*procs, g.NumNodes())
	// The list heuristics share the engines' int32 cost arithmetic.
	if err := core.CheckInstance(g, sys); err != nil {
		fatal(err)
	}

	var disable core.Disable
	if *noPrune {
		disable = core.DisableAllPruning
	}
	for _, name := range strings.Split(*disableList, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		d, ok := core.DisableByName(name)
		if !ok {
			fatal(fmt.Errorf("unknown pruning name %q in -disable", name))
		}
		disable |= d
	}
	cfg := engine.Config{
		Disable:     disable,
		MaxExpanded: *budget,
		Timeout:     *timeout,
		PPEs:        *ppesN,
		Workers:     *workersN,
	}
	if *hplus {
		cfg.HFunc = core.HPlus
	}
	if *hfunc != "" {
		h, ok := core.HFuncByName(*hfunc)
		if !ok {
			fatal(fmt.Errorf("unknown heuristic tier %q in -hfunc", *hfunc))
		}
		cfg.HFunc = h
	}

	// Resolve what to run: -engine wins; -algo keeps the heuristics and
	// doubles as an engine-name shorthand; the default is the serial A*.
	selected := *engName
	if selected == "" {
		selected = *algo
	}
	if selected == "" {
		selected = "astar"
	}

	started := time.Now()
	var s *schedule.Schedule
	var optimal bool
	var stats core.Stats
	label := selected
	switch selected {
	case "list", "etf", "mcp", "dls":
		var ls *schedule.Schedule
		var err error
		switch selected {
		case "list":
			ls, err = listsched.Schedule(g, sys, listsched.Options{Priority: listsched.PriorityBLevel})
		case "etf":
			ls, err = listsched.ETF(g, sys)
		case "mcp":
			ls, err = listsched.MCP(g, sys)
		case "dls":
			ls, err = listsched.DLS(g, sys)
		}
		if err != nil {
			fatal(err)
		}
		s = ls
	default:
		var names []string
		for _, name := range strings.Split(selected, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
		if len(names) == 0 {
			fatal(fmt.Errorf("no engine named in %q", selected))
		}
		epsSet := false
		fs.Visit(func(f *flag.Flag) { epsSet = epsSet || f.Name == "eps" })
		if len(names) == 1 && names[0] == "aeps" {
			cfg.Epsilon = *eps
		} else if epsSet {
			// Portfolio: an explicit -eps applies to the ε-capable entrants
			// (aeps, parallel); without it the exact entrants stay exact and
			// aeps uses its internal default.
			cfg.Epsilon = *eps
		}
		if len(names) > 1 {
			// Portfolio: race the named engines, report the winner and how
			// far the cancelled losers got.
			pf, err := solverpool.New(len(names)).SolvePortfolio(context.Background(), g, sys, names, cfg)
			if err != nil {
				fatal(err)
			}
			s, optimal, stats = pf.Result.Schedule, pf.Result.Optimal, pf.Result.Stats
			label = "portfolio:" + pf.Winner
			for name, lose := range pf.Losers {
				fmt.Printf("loser %-9s stopped after %d expansions (optimal=%v)\n",
					name, lose.Stats.Expanded, lose.Optimal)
			}
			for name, err := range pf.Errs {
				fmt.Printf("loser %-9s failed: %v\n", name, err)
			}
		} else {
			label = names[0]
			res, err := engine.Solve(context.Background(), names[0], g, sys, cfg)
			if err != nil {
				fatal(err)
			}
			s, optimal, stats = res.Schedule, res.Optimal, res.Stats
		}
	}
	elapsed := time.Since(started)

	if err := s.Validate(); err != nil {
		fatal(fmt.Errorf("produced an invalid schedule (bug): %w", err))
	}
	fmt.Printf("algorithm=%s system=%s length=%d optimal=%v time=%v\n",
		label, sys.Name(), s.Length, optimal, elapsed.Round(time.Microsecond))
	if stats.Expanded > 0 {
		fmt.Printf("states: expanded=%d generated=%d duplicates=%d max-open=%d\n",
			stats.Expanded, stats.Generated, stats.Duplicates, stats.MaxOpen)
	}
	if stats.PrunedEquiv > 0 || stats.PrunedFTO > 0 {
		fmt.Printf("pruned: equiv=%d fto=%d\n", stats.PrunedEquiv, stats.PrunedFTO)
	}
	fmt.Println()
	fmt.Print(s.Table())
	if *gantt {
		fmt.Println()
		fmt.Print(s.Gantt(8))
	}
}

func cmdExample() {
	g := gen.PaperExample()
	sys := procgraph.Ring(3)
	fmt.Println("Kwok & Ahmad ICPP'98, Figure 1: 6-task DAG on a 3-processor ring")
	fmt.Println()
	res, err := engine.Solve(context.Background(), "astar", g, sys, engine.Config{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("optimal schedule length = %d (paper's Figure 4: 14)\n", res.Length)
	fmt.Printf("states: expanded=%d generated=%d\n\n", res.Stats.Expanded, res.Stats.Generated)
	fmt.Print(res.Schedule.Gantt(8))
}

func cmdDot(args []string) {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	fs.Parse(args)
	g := loadGraph(fs.Args())
	if err := taskgraph.WriteDOT(os.Stdout, g); err != nil {
		fatal(err)
	}
}

// cmdTree records the search of a graph (the worked example by default)
// and draws the Figure 3-style tree (Figure 5-style when -ppes > 1).
func cmdTree(args []string) {
	fs := flag.NewFlagSet("tree", flag.ExitOnError)
	procs := fs.String("procs", "", "target system (default ring:3, matching Figure 1)")
	ppes := fs.Int("ppes", 1, "PPE count; > 1 records a parallel search (Figure 5)")
	dot := fs.Bool("dot", false, "emit Graphviz instead of ASCII")
	eps := fs.Float64("eps", 0, "ε > 0 traces the Aε* search instead")
	fs.Parse(args)

	var g *taskgraph.Graph
	if fs.NArg() == 0 {
		g = gen.PaperExample()
	} else {
		g = loadGraph(fs.Args())
	}
	spec := *procs
	if spec == "" {
		spec = "ring:3"
	}
	sys := parseSystem(spec, g.NumNodes())
	rec := trace.NewRecorder(g)

	var length int32
	var optimal bool
	if *ppes > 1 {
		res, err := engine.Solve(context.Background(), "parallel", g, sys, engine.Config{
			PPEs: *ppes, Epsilon: *eps, TracerFor: rec.ForPPE,
		})
		if err != nil {
			fatal(err)
		}
		length, optimal = res.Length, res.Optimal
	} else {
		name := "astar"
		if *eps > 0 {
			name = "aeps"
		}
		res, err := engine.Solve(context.Background(), name, g, sys, engine.Config{Epsilon: *eps, Tracer: rec})
		if err != nil {
			fatal(err)
		}
		length, optimal = res.Length, res.Optimal
	}

	if *dot {
		if err := rec.WriteDOT(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("search tree for %q on %s: %d states generated, %d expanded, length %d (optimal=%v)\n\n",
		g.Name(), sys.Name(), rec.GeneratedCount(), rec.ExpandedCount(), length, optimal)
	if err := rec.WriteASCII(os.Stdout); err != nil {
		fatal(err)
	}
}

// cmdHeuristics runs every list-scheduling heuristic against the optimal
// A* schedule — the study the paper's introduction motivates ("optimal
// solutions ... can serve as a reference to assess the performance of
// various scheduling heuristics").
func cmdHeuristics(args []string) {
	fs := flag.NewFlagSet("heuristics", flag.ExitOnError)
	procs := fs.String("procs", "", "target system (default complete:V)")
	budget := fs.Int64("budget", 2_000_000, "optimal-search expansion budget")
	fs.Parse(args)
	g := loadGraph(fs.Args())
	sys := parseSystem(*procs, g.NumNodes())

	res, err := engine.Solve(context.Background(), "astar", g, sys, engine.Config{MaxExpanded: *budget})
	if err != nil {
		fatal(err)
	}
	ref := "optimal"
	if !res.Optimal {
		ref = "best-found (budget hit; deviations are upper bounds)"
	}
	fmt.Printf("reference: A* length %d (%s)\n\n", res.Length, ref)
	fmt.Printf("%-24s %8s %10s\n", "heuristic", "length", "deviation")
	for _, alg := range listsched.All() {
		s, err := alg.Run(g, sys)
		if err != nil {
			fatal(err)
		}
		dev := 100 * (float64(s.Length) - float64(res.Length)) / float64(res.Length)
		fmt.Printf("%-24s %8d %9.1f%%\n", alg.Name, s.Length, dev)
	}
}

// cmdConvert rewrites a graph file between the native text format and STG.
func cmdConvert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	to := fs.String("to", "stg", "target format: stg | tg")
	edgeCost := fs.Int("edgecost", 0, "uniform edge cost to attach when importing STG")
	fs.Parse(args)
	g := loadGraphWithSTGCost(fs.Args(), int32(*edgeCost))
	switch *to {
	case "stg":
		if err := stg.Write(os.Stdout, g); err != nil {
			fatal(err)
		}
	case "tg":
		if err := taskgraph.Format(os.Stdout, g); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown format %q", *to))
	}
}

func loadGraphWithSTGCost(args []string, edgeCost int32) *taskgraph.Graph {
	if len(args) > 0 && strings.HasSuffix(args[0], ".stg") && edgeCost > 0 {
		f, err := os.Open(args[0])
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		g, err := stg.Read(f, stg.ImportOptions{EdgeCost: edgeCost})
		if err != nil {
			fatal(err)
		}
		return g
	}
	return loadGraph(args)
}

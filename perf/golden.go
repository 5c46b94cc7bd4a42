package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/core"
	"repro/internal/engine"
)

// The golden file pins, for the default seed, the digest of every
// workload's inputs and the optimum of every search instance the benchmark
// proves. A change to a generator then fails the run instead of silently
// changing the workload, and a wrong proof fails it too. Regenerate it with
// `go run . golden` (from perf/) only when a generator change is intended.

const defaultSeed = 1998

//go:embed testdata/golden-1998.json
var goldenJSON []byte

type goldenFile struct {
	Seed      uint64                    `json:"seed"`
	Workloads map[string]goldenWorkload `json:"workloads"`
}

type goldenWorkload struct {
	Instances int    `json:"instances"`
	Digest    string `json:"digest"`
	// Optima maps a corpus index to the proven optimal schedule length.
	Optima map[string]int32 `json:"optima,omitempty"`
}

// golden is the golden file when it applies to the run's seed, else nil;
// every check on a nil golden passes.
type golden struct{ file goldenFile }

func loadGolden(seed uint64) (*golden, error) {
	var f goldenFile
	if err := json.Unmarshal(goldenJSON, &f); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	if f.Seed != seed {
		return nil, nil
	}
	return &golden{file: f}, nil
}

// checkCorpus digests a workload's generated inputs — on every seed, so
// that set-up does the same work whatever the seed — and compares the
// digest with the golden file.
func (g *golden) checkCorpus(name string, in []instance) string {
	digest, err := corpusDigest(in)
	if err != nil {
		return fmt.Sprintf("%s: digest: %v", name, err)
	}
	if g == nil {
		return ""
	}
	w, ok := g.file.Workloads[name]
	if !ok {
		return fmt.Sprintf("golden file has no entry for %s", name)
	}
	if w.Instances != len(in) || w.Digest != digest {
		return fmt.Sprintf("%s inputs changed: %d instances with digest %s, golden file has %d with %s",
			name, len(in), digest, w.Instances, w.Digest)
	}
	return ""
}

// optima returns the golden optima of a search workload by corpus index.
func (g *golden) optima(name string) map[int]int32 {
	out := map[int]int32{}
	if g == nil {
		return out
	}
	for k, v := range g.file.Workloads[name].Optima {
		if i, err := strconv.Atoi(k); err == nil {
			out[i] = v
		}
	}
	return out
}

// goldenExpansions caps the exact solves that find the golden optima: four
// times the workloads' cap, so the file pins optima the timed runs do not
// prove themselves too, and the ε-bounded runs' guarantees are checked
// against true optima.
const goldenExpansions = 20_000

// goldenMain writes the golden file: it solves every instance of both
// search corpora once with exact A* and records the proven optima.
func goldenMain(args []string) int {
	fs := flag.NewFlagSet("golden", flag.ContinueOnError)
	out := fs.String("out", "testdata/golden-1998.json", "file to write")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	f := goldenFile{Seed: defaultSeed, Workloads: map[string]goldenWorkload{}}
	for _, sp := range []searchSpec{paperExact, paperApprox} {
		corpus, err := sp.corpus(defaultSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		digest, err := corpusDigest(corpus)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		w := goldenWorkload{Instances: len(corpus), Digest: digest, Optima: map[string]int32{}}
		cfg := engine.Config{HFunc: core.HLoad, MaxExpanded: goldenExpansions}
		for i, x := range corpus {
			res, err := engine.Solve(context.Background(), "astar", x.g, x.sys, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if msg := checkSearch(x, res, 0, 0); msg != "" {
				fmt.Fprintln(os.Stderr, msg)
				return 1
			}
			if res.Optimal {
				w.Optima[strconv.Itoa(i)] = res.Length
			}
		}
		f.Workloads[sp.name] = w
	}
	for _, sp := range []serveSpec{serveWarm, serveCold} {
		c, err := sp.corpus(defaultSeed, sp.digestPrefix())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		digest, err := corpusDigest(c)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		f.Workloads[sp.name] = goldenWorkload{Instances: len(c), Digest: digest}
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err == nil {
		err = os.WriteFile(*out, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

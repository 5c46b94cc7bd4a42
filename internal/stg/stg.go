// Package stg reads and writes task graphs in the Standard Task Graph Set
// format (Kasahara & Narita's benchmark collection — the paper's ref. [9]
// lineage), so the schedulers can run on the community's shared instances.
//
// The textual format is:
//
//	<number of tasks>
//	<task id> <processing time> <number of predecessors> <pred id> ...
//	...
//
// with '#' starting a comment that runs to end of line. Task ids must be
// 0..n-1 in order. STG instances conventionally wrap the real workload
// between a zero-cost dummy entry task (id 0) and a zero-cost dummy exit
// task (id n-1); because this library's graphs require positive node
// weights, importing maps such dummies away by default (their precedence
// role is preserved transitively through their edges).
//
// STG models no communication, so imported edges default to cost zero; set
// ImportOptions.EdgeCost to synthesize a uniform communication cost (e.g.
// to hit a target CCR) without editing the instance file.
package stg

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/taskgraph"
)

// ImportOptions configures Read.
type ImportOptions struct {
	// KeepDummies retains zero-weight tasks by clamping their weight to 1
	// instead of splicing them out.
	KeepDummies bool
	// EdgeCost is the uniform communication cost attached to every
	// imported edge (STG instances carry none). Zero is the STG model.
	EdgeCost int32
	// Name overrides the graph name (default "stg").
	Name string
}

// Read parses an STG instance.
func Read(r io.Reader, opt ImportOptions) (*taskgraph.Graph, error) {
	toks, err := tokenize(r)
	if err != nil {
		return nil, err
	}
	pos := 0
	next := func() (int64, error) {
		if pos >= len(toks) {
			return 0, fmt.Errorf("stg: unexpected end of input")
		}
		v, err := strconv.ParseInt(toks[pos].text, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("stg: line %d: %q is not an integer", toks[pos].line, toks[pos].text)
		}
		pos++
		return v, nil
	}

	n64, err := next()
	if err != nil {
		return nil, err
	}
	// Many STG files state the task count exclusive of the two dummy
	// tasks; accept both by reading exactly the declared count of records
	// and then, if exactly two more records follow, reading those too.
	n := int(n64)
	if n <= 0 {
		return nil, fmt.Errorf("stg: non-positive task count %d", n)
	}

	var recs []record
	readRecord := func(expectID int) error {
		id, err := next()
		if err != nil {
			return err
		}
		if id != int64(expectID) {
			return fmt.Errorf("stg: task ids must be sequential: got %d, want %d", id, expectID)
		}
		w, err := next()
		if err != nil {
			return err
		}
		if w < 0 {
			return fmt.Errorf("stg: task %d has negative processing time %d", id, w)
		}
		np, err := next()
		if err != nil {
			return err
		}
		if np < 0 || np > int64(expectID) {
			return fmt.Errorf("stg: task %d declares %d predecessors", id, np)
		}
		preds := make([]int64, 0, np)
		for k := int64(0); k < np; k++ {
			p, err := next()
			if err != nil {
				return err
			}
			if p < 0 || p >= id {
				return fmt.Errorf("stg: task %d lists invalid predecessor %d", id, p)
			}
			preds = append(preds, p)
		}
		recs = append(recs, record{weight: w, preds: preds})
		return nil
	}
	for i := 0; i < n; i++ {
		if err := readRecord(i); err != nil {
			return nil, err
		}
	}
	// Optional +2 convention: a trailing pair of records for the dummies.
	if pos < len(toks) {
		for i := 0; i < 2 && pos < len(toks); i++ {
			if err := readRecord(n + i); err != nil {
				return nil, err
			}
		}
	}
	if pos != len(toks) {
		return nil, fmt.Errorf("stg: %d trailing tokens after the last task record", len(toks)-pos)
	}

	return build(recs, opt)
}

type taggedTok struct {
	text string
	line int
}

func tokenize(r io.Reader) ([]taggedTok, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("stg: read: %w", err)
	}
	var toks []taggedTok
	for lineNo, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, f := range strings.Fields(line) {
			toks = append(toks, taggedTok{text: f, line: lineNo + 1})
		}
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("stg: empty input")
	}
	return toks, nil
}

// record is one parsed STG task line.
type record struct {
	weight int64
	preds  []int64
}

// build assembles the graph, splicing out zero-weight dummies unless
// KeepDummies: each dummy's predecessors are connected directly to each of
// its successors, preserving every precedence the dummy mediated.
func build(recs []record, opt ImportOptions) (*taskgraph.Graph, error) {
	n := len(recs)
	dummy := make([]bool, n)
	if !opt.KeepDummies {
		for i, rc := range recs {
			if rc.weight == 0 {
				dummy[i] = true
			}
		}
	}

	// through[i] holds, for a dummy i, the real tasks that precede it
	// through dummies only. Ids are topological (every predecessor has a
	// smaller id), so one ascending pass fills each set once from its
	// predecessors' — walking the dummy paths instead takes time
	// exponential in the depth of a dummy lattice.
	through := make([][]int, n)
	realPreds := func(i int) []int {
		seen := map[int]bool{}
		var out []int
		add := func(p int) {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
		for _, p64 := range recs[i].preds {
			p := int(p64)
			if !dummy[p] {
				add(p)
				continue
			}
			for _, q := range through[p] {
				add(q)
			}
		}
		sort.Ints(out)
		return out
	}
	for i := range recs {
		if dummy[i] {
			through[i] = realPreds(i)
		}
	}

	name := opt.Name
	if name == "" {
		name = "stg"
	}
	b := taskgraph.NewBuilder(name)
	id := make([]int32, n)
	kept := 0
	for i, rc := range recs {
		if dummy[i] {
			id[i] = -1
			continue
		}
		w := rc.weight
		if w == 0 {
			w = 1 // KeepDummies: clamp to the library's positive-weight rule
		}
		if w > 1<<30 {
			return nil, fmt.Errorf("stg: task %d weight %d overflows", i, w)
		}
		id[i] = b.AddLabeledNode(int32(w), fmt.Sprintf("t%d", i))
		kept++
	}
	if kept == 0 {
		return nil, fmt.Errorf("stg: instance has no non-dummy tasks")
	}
	for i := range recs {
		if dummy[i] {
			continue
		}
		for _, p := range realPreds(i) {
			b.AddEdge(id[p], id[i], opt.EdgeCost)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("stg: %w", err)
	}
	return g, nil
}

// Write emits g in STG format with the conventional zero-cost dummy entry
// and exit tasks. Edge communication costs are not representable in STG
// and are dropped; use the library's native format to round-trip them.
func Write(w io.Writer, g *taskgraph.Graph) error {
	v := g.NumNodes()
	var b strings.Builder
	fmt.Fprintf(&b, "%d  # tasks incl. dummy entry/exit; graph %q\n", v+2, g.Name())
	// Dummy entry: id 0, weight 0, no predecessors.
	fmt.Fprintf(&b, "%d 0 0\n", 0)
	for n := 0; n < v; n++ {
		preds := g.Pred(int32(n))
		fmt.Fprintf(&b, "%d %d %d", n+1, g.Weight(int32(n)), max(len(preds), 1))
		if len(preds) == 0 {
			fmt.Fprintf(&b, " 0") // hang entries off the dummy entry task
		}
		for _, a := range preds {
			fmt.Fprintf(&b, " %d", a.Node+1)
		}
		b.WriteByte('\n')
	}
	// Dummy exit: preceded by every exit node.
	exits := g.ExitNodes()
	fmt.Fprintf(&b, "%d 0 %d", v+1, len(exits))
	for _, e := range exits {
		fmt.Fprintf(&b, " %d", e+1)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

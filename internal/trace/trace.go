// Package trace reconstructs search trees from the engines' expansion and
// generation events — the renderings the paper draws in Figure 3 (serial
// A* on the worked example) and Figure 5 (the 2-PPE parallel A* on the
// same example).
//
// A Recorder implements core.Tracer; plug it into core.Options.Tracer for a
// serial search, or hand per-PPE views from Recorder.ForPPE to
// parallel.Options.TracerFor. Afterwards, Root yields the recorded tree and
// the ASCII/DOT writers draw it: every node shows the assignment that
// created it, its cost split f = g + h exactly as in the figures, and the
// order (and PPE, if parallel) of its expansion.
//
// Recording every generated state costs memory proportional to the search,
// so tracing is meant for worked examples and debugging, not for the
// benchmark sweeps.
//
// A *core.State an engine hands a tracer is valid only until the solve
// returns: the serial engine reuses its state arena for the next solve.
// Each Node therefore keeps its own copy of the state it records, with no
// parent link (core.State.Detach), so a tree outlives the solve that built
// it. A Recorder records one search.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/taskgraph"
)

// Node is one recorded search state.
type Node struct {
	// State is a copy of the engine's state taken when it was first
	// recorded, with no parent link (walk the tree instead); nil only for
	// the synthetic root of a tree whose true initial state was never
	// observed.
	State *core.State
	// Children in generation order.
	Children []*Node
	// ExpandOrder is the 0-based expansion sequence number (per PPE in a
	// parallel search), or -1 if the state was generated but never
	// expanded.
	ExpandOrder int
	// ExpandPPE is the PPE that expanded this state, or -1 in a serial
	// search (and for unexpanded states).
	ExpandPPE int
	// GenPPE is the PPE whose expander generated this state (-1 in a
	// serial search or for the root).
	GenPPE int
	seq    int64      // global arrival order, used to sort children
	snap   core.State // what State points to
}

// Goal reports whether the node's state schedules all v nodes.
func (n *Node) Goal(v int) bool {
	return n.State != nil && int(n.State.Depth()) == v
}

// Recorder collects search events into a tree. It is safe for concurrent
// use by multiple PPE goroutines.
type Recorder struct {
	g *taskgraph.Graph

	mu     sync.Mutex
	nodes  map[*core.State]*Node // by the engine's pointer, while it runs
	root   *Node
	seq    int64
	orders map[int]int // next expansion order per PPE (-1 = serial)

	expanded  int64
	generated int64
}

// NewRecorder returns a Recorder for searches over g (used for node
// labels).
func NewRecorder(g *taskgraph.Graph) *Recorder {
	return &Recorder{
		g:      g,
		nodes:  make(map[*core.State]*Node, 256),
		orders: make(map[int]int, 4),
	}
}

var _ core.Tracer = (*Recorder)(nil)

// Expanded implements core.Tracer for serial searches (PPE -1).
func (r *Recorder) Expanded(s *core.State) { r.expand(-1, s) }

// Generated implements core.Tracer for serial searches.
func (r *Recorder) Generated(parent, child *core.State) { r.generate(-1, parent, child) }

// ForPPE returns a core.Tracer view that stamps events with the given PPE
// id, for parallel.Options.TracerFor.
func (r *Recorder) ForPPE(id int) core.Tracer { return ppeView{r: r, id: id} }

type ppeView struct {
	r  *Recorder
	id int
}

func (v ppeView) Expanded(s *core.State)              { v.r.expand(v.id, s) }
func (v ppeView) Generated(parent, child *core.State) { v.r.generate(v.id, parent, child) }

// lookup returns the tree node for s, creating it (unlinked) if the
// recorder has not seen it; the root state is recognized by its nil parent.
func (r *Recorder) lookup(s *core.State) *Node {
	if n, ok := r.nodes[s]; ok {
		return n
	}
	n := &Node{ExpandOrder: -1, ExpandPPE: -1, GenPPE: -1, seq: r.seq, snap: s.Detach()}
	n.State = &n.snap
	r.seq++
	r.nodes[s] = n
	if s.Parent() == nil {
		r.root = n
	}
	return n
}

func (r *Recorder) expand(ppe int, s *core.State) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.lookup(s)
	if n.ExpandOrder >= 0 {
		return // re-expansion (e.g. a transferred duplicate); keep the first
	}
	n.ExpandOrder = r.orders[ppe]
	r.orders[ppe]++
	n.ExpandPPE = ppe
	r.expanded++
}

func (r *Recorder) generate(ppe int, parent, child *core.State) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.lookup(parent)
	c := r.lookup(child)
	c.GenPPE = ppe
	p.Children = append(p.Children, c)
	r.generated++
}

// Root returns the recorded tree's root (the initial empty state Φ), or
// nil if nothing was recorded.
func (r *Recorder) Root() *Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.root
}

// ExpandedCount returns the number of expansion events recorded — the
// paper's "states expanded" figure for the worked example (9 in Figure 3).
func (r *Recorder) ExpandedCount() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.expanded
}

// GeneratedCount returns the number of generation events recorded — the
// paper's "states generated" figure for the worked example (26 in Figure
// 3).
func (r *Recorder) GeneratedCount() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.generated
}

// label renders one state like the paper's figures: "n4 → PE 1  f = 8 + 2".
func (r *Recorder) label(n *Node) string {
	s := n.State
	if s == nil || s.Node() < 0 {
		return "Φ (initial state)"
	}
	return fmt.Sprintf("%s → PE %d  f = %d + %d", r.g.Label(s.Node()), s.Proc(), s.G(), s.H())
}

// expansionTag renders the expansion annotation: "#3" serially,
// "PPE 1 #3" in a parallel trace, "" for unexpanded states.
func expansionTag(n *Node) string {
	if n.ExpandOrder < 0 {
		return ""
	}
	if n.ExpandPPE < 0 {
		return fmt.Sprintf("  [expansion %d]", n.ExpandOrder)
	}
	return fmt.Sprintf("  [PPE %d, expansion %d]", n.ExpandPPE, n.ExpandOrder)
}

// WriteASCII draws the tree in generation order with box-drawing indents,
// annotating each expanded state with its expansion order (compare Figures
// 3 and 5; goals are marked).
func (r *Recorder) WriteASCII(w io.Writer) error {
	root := r.Root()
	if root == nil {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	v := r.g.NumNodes()
	var rec func(n *Node, prefix string, last bool) error
	rec = func(n *Node, prefix string, last bool) error {
		connector, childPrefix := "├─ ", prefix+"│  "
		if last {
			connector, childPrefix = "└─ ", prefix+"   "
		}
		if n == root {
			connector, childPrefix = "", ""
		}
		goal := ""
		if n.Goal(v) {
			goal = "  ◀ goal"
		}
		if _, err := fmt.Fprintf(w, "%s%s%s%s%s\n", prefix, connector, r.label(n), expansionTag(n), goal); err != nil {
			return err
		}
		kids := n.sortedChildren()
		for i, c := range kids {
			if err := rec(c, childPrefix, i == len(kids)-1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(root, "", true)
}

// sortedChildren returns the children by arrival order (stable across
// runs of a serial search).
func (n *Node) sortedChildren() []*Node {
	kids := append([]*Node(nil), n.Children...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].seq < kids[j].seq })
	return kids
}

// WriteDOT emits the tree as a Graphviz digraph; expanded states carry
// their expansion order, goals are doubly circled, and in parallel traces
// nodes are colored by expanding PPE.
func (r *Recorder) WriteDOT(w io.Writer) error {
	root := r.Root()
	if root == nil {
		return fmt.Errorf("trace: empty trace")
	}
	v := r.g.NumNodes()
	var b strings.Builder
	b.WriteString("digraph searchtree {\n  node [shape=box, fontname=\"monospace\"];\n")
	id := map[*Node]int{}
	var number func(n *Node)
	number = func(n *Node) {
		id[n] = len(id)
		for _, c := range n.sortedChildren() {
			number(c)
		}
	}
	number(root)
	var emit func(n *Node)
	emit = func(n *Node) {
		attrs := ""
		if n.Goal(v) {
			attrs = ", peripheries=2"
		}
		if n.ExpandPPE >= 0 {
			// Distinguish PPEs with a simple color cycle.
			colors := []string{"lightblue", "lightyellow", "lightpink", "lightgreen"}
			attrs += fmt.Sprintf(", style=filled, fillcolor=%q", colors[n.ExpandPPE%len(colors)])
		}
		label := r.label(n) + strings.ReplaceAll(expansionTag(n), "  [", "\\n[")
		fmt.Fprintf(&b, "  s%d [label=%q%s];\n", id[n], label, attrs)
		for _, c := range n.sortedChildren() {
			fmt.Fprintf(&b, "  s%d -> s%d;\n", id[n], id[c])
			emit(c)
		}
	}
	emit(root)
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Package taskgraph models the node- and edge-weighted directed acyclic
// graphs (DAGs) that represent parallel programs in the static scheduling
// problem of Kwok & Ahmad (ICPP'98, §2).
//
// A node is a task with a computation cost w(n); a directed edge (n_i, n_j)
// carries a communication cost c(n_i, n_j) that is charged only when the two
// endpoint tasks execute on different processors. The package provides the
// graph-analysis primitives the schedulers rely on: topological order,
// t-levels, b-levels, static levels, the critical path, and the
// communication-to-computation ratio (CCR).
//
// All costs are int32 time units; weights must be >= 1 and edge costs >= 0.
package taskgraph

import (
	"fmt"
	"sort"
)

// Adj is one adjacency entry: the far endpoint of an edge and the edge's
// communication cost.
type Adj struct {
	Node int32 // neighbor node id
	Cost int32 // communication cost of the edge
}

// Edge is a fully specified directed edge, used by builders and serializers.
// The json tags define the graph's wire form (see MarshalJSON in io.go),
// which the network daemon's submit endpoint accepts.
type Edge struct {
	From int32 `json:"from"`
	To   int32 `json:"to"`
	Cost int32 `json:"cost"`
}

// Graph is an immutable weighted DAG. Construct one with a Builder, a
// generator from internal/gen, or one of the parsers in this package.
type Graph struct {
	name    string
	weights []int32
	labels  []string
	succ    [][]Adj
	pred    [][]Adj
	edges   int
	topo    []int32
}

// Footprint estimates the bytes the graph keeps resident: its name and
// labels, each node's weight, topological position and adjacency headers,
// and each edge in both adjacency lists. Holders of many graphs (the
// daemon's schedule cache and admission memo) budget their memory with it.
func (g *Graph) Footprint() int64 {
	n := int64(len(g.name)) + int64(len(g.weights))*(4+4+2*24) + int64(g.edges)*2*8
	for _, l := range g.labels {
		n += 16 + int64(len(l))
	}
	return n
}

// Name returns the graph's name (may be empty).
func (g *Graph) Name() string { return g.name }

// NumNodes returns v, the number of tasks.
func (g *Graph) NumNodes() int { return len(g.weights) }

// NumEdges returns e, the number of precedence edges.
func (g *Graph) NumEdges() int { return g.edges }

// Weight returns the computation cost w(n) of node n.
func (g *Graph) Weight(n int32) int32 { return g.weights[n] }

// Weights returns the computation cost vector indexed by node id. The caller
// must not modify the returned slice.
func (g *Graph) Weights() []int32 { return g.weights }

// Label returns the human-readable label of node n ("n<i+1>" by default,
// matching the paper's 1-based node names).
func (g *Graph) Label(n int32) string {
	if g.labels != nil && g.labels[n] != "" {
		return g.labels[n]
	}
	return fmt.Sprintf("n%d", n+1)
}

// Succ returns the successor adjacency of node n. The caller must not modify
// the returned slice.
//
//icpp98:hotpath
func (g *Graph) Succ(n int32) []Adj { return g.succ[n] }

// Pred returns the predecessor adjacency of node n. The caller must not
// modify the returned slice.
//
//icpp98:hotpath
func (g *Graph) Pred(n int32) []Adj { return g.pred[n] }

// OutDegree returns the number of children of n.
func (g *Graph) OutDegree(n int32) int { return len(g.succ[n]) }

// InDegree returns the number of parents of n.
func (g *Graph) InDegree(n int32) int { return len(g.pred[n]) }

// EdgeCost returns the communication cost of edge (from, to) and whether the
// edge exists.
func (g *Graph) EdgeCost(from, to int32) (int32, bool) {
	for _, a := range g.succ[from] {
		if a.Node == to {
			return a.Cost, true
		}
	}
	return 0, false
}

// TopoOrder returns a topological order of the nodes. The caller must not
// modify the returned slice.
func (g *Graph) TopoOrder() []int32 { return g.topo }

// EntryNodes returns all nodes without parents.
func (g *Graph) EntryNodes() []int32 {
	var out []int32
	for n := range g.pred {
		if len(g.pred[n]) == 0 {
			out = append(out, int32(n))
		}
	}
	return out
}

// ExitNodes returns all nodes without children.
func (g *Graph) ExitNodes() []int32 {
	var out []int32
	for n := range g.succ {
		if len(g.succ[n]) == 0 {
			out = append(out, int32(n))
		}
	}
	return out
}

// TotalWork returns the sum of all computation costs.
func (g *Graph) TotalWork() int64 {
	var t int64
	for _, w := range g.weights {
		t += int64(w)
	}
	return t
}

// TotalComm returns the sum of all communication costs.
func (g *Graph) TotalComm() int64 {
	var t int64
	for n := range g.succ {
		for _, a := range g.succ[n] {
			t += int64(a.Cost)
		}
	}
	return t
}

// CCR returns the communication-to-computation ratio: the average edge cost
// divided by the average node cost (paper §2). A graph without edges has
// CCR 0.
func (g *Graph) CCR() float64 {
	if g.edges == 0 {
		return 0
	}
	avgComm := float64(g.TotalComm()) / float64(g.edges)
	avgComp := float64(g.TotalWork()) / float64(g.NumNodes())
	return avgComm / avgComp
}

// Edges returns every edge of the graph in (from, to) order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for n := range g.succ {
		for _, a := range g.succ[n] {
			out = append(out, Edge{From: int32(n), To: a.Node, Cost: a.Cost})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// String returns a one-line summary.
func (g *Graph) String() string {
	return fmt.Sprintf("taskgraph %q: v=%d e=%d ccr=%.2f", g.name, g.NumNodes(), g.NumEdges(), g.CCR())
}

// Builder incrementally assembles a Graph and validates it in Build.
type Builder struct {
	name    string
	weights []int32
	labels  []string
	edges   []Edge
}

// NewBuilder returns an empty builder for a graph with the given name.
func NewBuilder(name string) *Builder { return &Builder{name: name} }

// AddNode appends a node with the given computation cost and returns its id.
func (b *Builder) AddNode(weight int32) int32 {
	b.weights = append(b.weights, weight)
	b.labels = append(b.labels, "")
	return int32(len(b.weights) - 1)
}

// AddLabeledNode appends a node with a label and returns its id.
func (b *Builder) AddLabeledNode(weight int32, label string) int32 {
	id := b.AddNode(weight)
	b.labels[id] = label
	return id
}

// AddEdge records a directed edge; validation happens in Build.
func (b *Builder) AddEdge(from, to, cost int32) {
	b.edges = append(b.edges, Edge{From: from, To: to, Cost: cost})
}

// NumNodes reports how many nodes have been added so far.
func (b *Builder) NumNodes() int { return len(b.weights) }

// Build validates the accumulated nodes and edges and returns the immutable
// Graph. It fails on empty graphs, non-positive node weights, negative edge
// costs, out-of-range endpoints, self-loops, duplicate edges, and cycles.
func (b *Builder) Build() (*Graph, error) {
	v := len(b.weights)
	if v == 0 {
		return nil, fmt.Errorf("taskgraph: graph %q has no nodes", b.name)
	}
	for i, w := range b.weights {
		if w <= 0 {
			return nil, fmt.Errorf("taskgraph: node %d has non-positive weight %d", i, w)
		}
	}
	g := &Graph{
		name:    b.name,
		weights: append([]int32(nil), b.weights...),
		labels:  append([]string(nil), b.labels...),
		succ:    make([][]Adj, v),
		pred:    make([][]Adj, v),
	}
	seen := make(map[[2]int32]bool, len(b.edges))
	for _, e := range b.edges {
		if e.From < 0 || int(e.From) >= v || e.To < 0 || int(e.To) >= v {
			return nil, fmt.Errorf("taskgraph: edge (%d,%d) out of range (v=%d)", e.From, e.To, v)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("taskgraph: self-loop on node %d", e.From)
		}
		if e.Cost < 0 {
			return nil, fmt.Errorf("taskgraph: edge (%d,%d) has negative cost %d", e.From, e.To, e.Cost)
		}
		key := [2]int32{e.From, e.To}
		if seen[key] {
			return nil, fmt.Errorf("taskgraph: duplicate edge (%d,%d)", e.From, e.To)
		}
		seen[key] = true
		g.succ[e.From] = append(g.succ[e.From], Adj{Node: e.To, Cost: e.Cost})
		g.pred[e.To] = append(g.pred[e.To], Adj{Node: e.From, Cost: e.Cost})
		g.edges++
	}
	for n := 0; n < v; n++ {
		sortAdj(g.succ[n])
		sortAdj(g.pred[n])
	}
	topo, err := topoSort(g)
	if err != nil {
		return nil, err
	}
	g.topo = topo
	return g, nil
}

// MustBuild is Build that panics on error; intended for tests and canned
// example graphs.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func sortAdj(a []Adj) {
	sort.Slice(a, func(i, j int) bool { return a[i].Node < a[j].Node })
}

// topoSort runs Kahn's algorithm; an incomplete order means a cycle.
func topoSort(g *Graph) ([]int32, error) {
	v := g.NumNodes()
	indeg := make([]int32, v)
	for n := 0; n < v; n++ {
		indeg[n] = int32(len(g.pred[n]))
	}
	queue := make([]int32, 0, v)
	for n := 0; n < v; n++ {
		if indeg[n] == 0 {
			queue = append(queue, int32(n))
		}
	}
	order := make([]int32, 0, v)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, a := range g.succ[n] {
			indeg[a.Node]--
			if indeg[a.Node] == 0 {
				queue = append(queue, a.Node)
			}
		}
	}
	if len(order) != v {
		return nil, fmt.Errorf("taskgraph: graph %q contains a cycle", g.name)
	}
	return order, nil
}

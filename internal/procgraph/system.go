// Package procgraph models the target multiprocessor system of the paper
// (§2): a set of processing elements (PEs) connected by an interconnection
// network of a certain topology. Links are homogeneous; PEs may be
// heterogeneous (different speeds). The same type also describes the
// interconnect of the *physical* PEs (PPEs) that run the parallel A*
// scheduler (§3.3), e.g. the Intel Paragon's mesh.
//
// The package computes all-pairs hop distances (BFS) and the static
// processor-interchangeability classes used by the processor-isomorphism
// pruning of §3.2: two PEs are interchangeable when swapping them is a
// distance-matrix-preserving automorphism transposition and their speeds are
// equal. Among interchangeable PEs that are both empty in a partial schedule,
// only one needs to be considered when expanding a search state.
package procgraph

import (
	"fmt"
	"math"
	"sort"
)

// LinkModel selects how an edge's communication cost maps onto the network.
type LinkModel int

const (
	// LinkHopScaled charges c(n_i,n_j) * hops(p_i, p_j) for a remote edge.
	LinkHopScaled LinkModel = iota
	// LinkUniform charges c(n_i,n_j) for any remote edge regardless of the
	// hop distance (a fully-connected view of the network).
	LinkUniform
)

func (m LinkModel) String() string {
	switch m {
	case LinkHopScaled:
		return "hop-scaled"
	case LinkUniform:
		return "uniform"
	default:
		return fmt.Sprintf("LinkModel(%d)", int(m))
	}
}

// System is an immutable description of a processor network.
type System struct {
	name    string
	n       int
	adj     [][]int32
	dist    [][]int32
	speed   []float64
	link    LinkModel
	classes []int32 // interchangeability class representative per PE
}

// Config customizes optional properties of a System.
type Config struct {
	// Speeds holds a per-PE execution-time multiplier; the execution cost of
	// a task with weight w on PE p is ceil(w * Speeds[p]). Nil means all 1.0
	// (homogeneous).
	Speeds []float64
	// Link selects the communication charging model; default LinkHopScaled.
	Link LinkModel
}

// MaxProcs is the largest number of PEs a System may have. A system keeps
// a P×P distance matrix (4 MiB at this limit) and the search keeps per-PE
// scratch, so New and ParseSpec reject a larger one before building
// anything. It admits every system the repository's experiments use.
const MaxProcs = 1024

// New builds a System from an undirected adjacency list. adj[i] lists the
// neighbors of PE i; edges may be listed on either or both endpoints. The
// graph must be connected and have at most MaxProcs PEs.
func New(name string, n int, adjPairs [][2]int, cfg Config) (*System, error) {
	if n <= 0 {
		return nil, fmt.Errorf("procgraph: system %q needs at least one PE", name)
	}
	if n > MaxProcs {
		return nil, fmt.Errorf("procgraph: system %q has %d PEs, more than the limit of %d", name, n, MaxProcs)
	}
	adjSet := make([]map[int32]bool, n)
	for i := range adjSet {
		adjSet[i] = map[int32]bool{}
	}
	for _, e := range adjPairs {
		a, b := e[0], e[1]
		if a < 0 || a >= n || b < 0 || b >= n {
			return nil, fmt.Errorf("procgraph: link (%d,%d) out of range (p=%d)", a, b, n)
		}
		if a == b {
			return nil, fmt.Errorf("procgraph: self-link on PE %d", a)
		}
		adjSet[a][int32(b)] = true
		adjSet[b][int32(a)] = true
	}
	s := &System{name: name, n: n, link: cfg.Link}
	s.adj = make([][]int32, n)
	for i := 0; i < n; i++ {
		for nb := range adjSet[i] {
			s.adj[i] = append(s.adj[i], nb)
		}
		sort.Slice(s.adj[i], func(x, y int) bool { return s.adj[i][x] < s.adj[i][y] })
	}
	if cfg.Speeds != nil {
		if len(cfg.Speeds) != n {
			return nil, fmt.Errorf("procgraph: got %d speeds for %d PEs", len(cfg.Speeds), n)
		}
		for i, sp := range cfg.Speeds {
			if sp <= 0 || math.IsNaN(sp) || math.IsInf(sp, 0) {
				return nil, fmt.Errorf("procgraph: PE %d has invalid speed %v", i, sp)
			}
		}
		s.speed = append([]float64(nil), cfg.Speeds...)
	}
	if err := s.computeDistances(); err != nil {
		return nil, err
	}
	s.computeClasses()
	return s, nil
}

func (s *System) computeDistances() error {
	s.dist = make([][]int32, s.n)
	for src := 0; src < s.n; src++ {
		d := make([]int32, s.n)
		for i := range d {
			d[i] = -1
		}
		d[src] = 0
		queue := []int32{int32(src)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range s.adj[u] {
				if d[v] < 0 {
					d[v] = d[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for i, dv := range d {
			if dv < 0 && s.n > 1 {
				return fmt.Errorf("procgraph: system %q is disconnected (PE %d unreachable from PE %d)", s.name, i, src)
			}
		}
		s.dist[src] = d
	}
	return nil
}

// computeClasses finds, for every PE, the representative (lowest id) of its
// interchangeability class. PEs i and j are interchangeable iff they have the
// same speed and the transposition (i j) preserves the hop-distance matrix:
// dist[i][k] == dist[j][k] for every k outside {i, j}. The relation is
// transitive (see the derivation in DESIGN.md §3.1), so greedy grouping by
// the first matching representative is sound.
func (s *System) computeClasses() {
	s.classes = make([]int32, s.n)
	var reps []int32
	for i := 0; i < s.n; i++ {
		s.classes[i] = int32(i)
		for _, r := range reps {
			if s.interchangeable(int(r), i) {
				s.classes[i] = r
				break
			}
		}
		if s.classes[i] == int32(i) {
			reps = append(reps, int32(i))
		}
	}
}

func (s *System) interchangeable(i, j int) bool {
	if s.Speed(i) != s.Speed(j) {
		return false
	}
	for k := 0; k < s.n; k++ {
		if k == i || k == j {
			continue
		}
		if s.dist[i][k] != s.dist[j][k] {
			return false
		}
	}
	return true
}

// Footprint estimates the bytes the system keeps resident: the P×P
// distance matrix, the adjacency lists, and the per-PE speeds, classes and
// row headers. Holders of many systems (the daemon's schedule cache and
// admission memo) budget their memory with it.
func (s *System) Footprint() int64 {
	n := int64(len(s.name)) + int64(s.n)*int64(s.n)*4 + int64(s.n)*(2*24+8+4)
	for _, row := range s.adj {
		n += int64(cap(row)) * 4
	}
	return n
}

// Name returns the system's name.
func (s *System) Name() string { return s.name }

// NumProcs returns p, the number of PEs.
func (s *System) NumProcs() int { return s.n }

// Link returns the communication charging model.
func (s *System) Link() LinkModel { return s.link }

// Neighbors returns the PEs adjacent to p. The caller must not modify the
// returned slice.
func (s *System) Neighbors(p int) []int32 { return s.adj[p] }

// Dist returns the hop distance between PEs i and j.
func (s *System) Dist(i, j int) int32 { return s.dist[i][j] }

// Diameter returns the maximum hop distance between any two PEs.
func (s *System) Diameter() int32 {
	var d int32
	for i := 0; i < s.n; i++ {
		for j := 0; j < s.n; j++ {
			if s.dist[i][j] > d {
				d = s.dist[i][j]
			}
		}
	}
	return d
}

// Speed returns the execution-time multiplier of PE p (1.0 = homogeneous).
func (s *System) Speed(p int) float64 {
	if s.speed == nil {
		return 1.0
	}
	return s.speed[p]
}

// Heterogeneous reports whether any two PEs differ in speed.
func (s *System) Heterogeneous() bool {
	if s.speed == nil {
		return false
	}
	for _, sp := range s.speed {
		if sp != s.speed[0] {
			return true
		}
	}
	return false
}

// ExecCost returns the execution cost of a task with weight w on PE p:
// ceil(w * speed(p)), never below 1.
func (s *System) ExecCost(w int32, p int) int32 {
	if s.speed == nil || s.speed[p] == 1.0 {
		return w
	}
	c := int32(math.Ceil(float64(w) * s.speed[p]))
	if c < 1 {
		c = 1
	}
	return c
}

// CommCost returns the time to move a message of edge cost c from PE i to
// PE j under the system's link model; zero when i == j.
//
//icpp98:hotpath
func (s *System) CommCost(c int32, i, j int) int32 {
	if i == j {
		return 0
	}
	if s.link == LinkUniform {
		return c
	}
	return c * s.dist[i][j]
}

// ClassRep returns the representative PE of p's interchangeability class.
func (s *System) ClassRep(p int) int32 { return s.classes[p] }

// Classes returns the per-PE class representative vector. The caller must
// not modify the returned slice.
func (s *System) Classes() []int32 { return s.classes }

// NumClasses returns the number of distinct interchangeability classes.
func (s *System) NumClasses() int {
	seen := map[int32]bool{}
	for _, c := range s.classes {
		seen[c] = true
	}
	return len(seen)
}

// String returns a one-line summary.
func (s *System) String() string {
	return fmt.Sprintf("procgraph %q: p=%d classes=%d link=%s hetero=%v", s.name, s.n, s.NumClasses(), s.link, s.Heterogeneous())
}

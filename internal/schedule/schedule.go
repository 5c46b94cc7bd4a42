// Package schedule represents complete schedules of a task graph onto a
// processor system and validates them against the model of the paper (§2):
// precedence constraints with communication delays, non-preemption, and
// per-processor mutual exclusion.
package schedule

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/procgraph"
	"repro/internal/taskgraph"
)

// Placement is the assignment of one task: its processor and time window.
type Placement struct {
	Proc   int32
	Start  int32
	Finish int32
}

// Schedule is a complete mapping of every task to a placement.
type Schedule struct {
	Graph  *taskgraph.Graph
	System *procgraph.System
	Place  []Placement // indexed by node id
	Length int32       // makespan: max finish time
}

// New assembles a Schedule and computes its length. It does not validate;
// call Validate for that.
func New(g *taskgraph.Graph, sys *procgraph.System, place []Placement) *Schedule {
	s := &Schedule{Graph: g, System: sys, Place: place}
	for _, p := range place {
		if p.Finish > s.Length {
			s.Length = p.Finish
		}
	}
	return s
}

// Validate checks every constraint of the scheduling model:
//
//   - every node is placed on a PE in range with 0 <= Start <= Finish,
//   - Finish - Start equals the node's execution cost on its PE,
//   - a node starts only after every parent has finished, plus the
//     communication cost if the parent ran on a different PE,
//   - no two nodes overlap on the same PE.
//
// Time arithmetic is done in int64, so a placement whose int32 finish time
// has wrapped around cannot pass as the right duration.
//
// It returns nil for a feasible schedule and a descriptive error otherwise.
func (s *Schedule) Validate() error {
	g, sys := s.Graph, s.System
	if g == nil || sys == nil {
		return fmt.Errorf("schedule: missing graph or system")
	}
	v := g.NumNodes()
	if len(s.Place) != v {
		return fmt.Errorf("schedule: %d placements for %d nodes", len(s.Place), v)
	}
	p := sys.NumProcs()
	for n := 0; n < v; n++ {
		pl := s.Place[n]
		if pl.Proc < 0 || int(pl.Proc) >= p {
			return fmt.Errorf("schedule: node %s on invalid PE %d", g.Label(int32(n)), pl.Proc)
		}
		if pl.Start < 0 {
			return fmt.Errorf("schedule: node %s starts at negative time %d", g.Label(int32(n)), pl.Start)
		}
		if pl.Finish < pl.Start {
			return fmt.Errorf("schedule: node %s finishes at %d before it starts at %d",
				g.Label(int32(n)), pl.Finish, pl.Start)
		}
		want := int64(sys.ExecCost(g.Weight(int32(n)), int(pl.Proc)))
		if run := int64(pl.Finish) - int64(pl.Start); run != want {
			return fmt.Errorf("schedule: node %s runs for %d, want execution cost %d",
				g.Label(int32(n)), run, want)
		}
	}
	for n := 0; n < v; n++ {
		child := s.Place[n]
		for _, a := range g.Pred(int32(n)) {
			parent := s.Place[a.Node]
			ready := int64(parent.Finish) + int64(sys.CommCost(a.Cost, int(parent.Proc), int(child.Proc)))
			if int64(child.Start) < ready {
				return fmt.Errorf("schedule: node %s starts at %d before data from %s is ready at %d",
					g.Label(int32(n)), child.Start, g.Label(a.Node), ready)
			}
		}
	}
	byProc := make([][]int32, p)
	for n := 0; n < v; n++ {
		byProc[s.Place[n].Proc] = append(byProc[s.Place[n].Proc], int32(n))
	}
	for pe, nodes := range byProc {
		sort.Slice(nodes, func(i, j int) bool { return s.Place[nodes[i]].Start < s.Place[nodes[j]].Start })
		for i := 1; i < len(nodes); i++ {
			prev, cur := s.Place[nodes[i-1]], s.Place[nodes[i]]
			if cur.Start < prev.Finish {
				return fmt.Errorf("schedule: nodes %s and %s overlap on PE %d",
					g.Label(nodes[i-1]), g.Label(nodes[i]), pe)
			}
		}
	}
	return nil
}

// ProcsUsed returns the number of PEs that run at least one task (the paper
// reports that searches use far fewer than the v available TPEs).
func (s *Schedule) ProcsUsed() int {
	used := map[int32]bool{}
	for _, p := range s.Place {
		used[p.Proc] = true
	}
	return len(used)
}

// Efficiency returns total work divided by (length * PEs used), a utilization
// measure in (0, 1].
func (s *Schedule) Efficiency() float64 {
	if s.Length == 0 {
		return 0
	}
	var work int64
	for n := 0; n < s.Graph.NumNodes(); n++ {
		work += int64(s.Place[n].Finish - s.Place[n].Start)
	}
	return float64(work) / (float64(s.Length) * float64(s.ProcsUsed()))
}

// String returns a one-line summary.
func (s *Schedule) String() string {
	return fmt.Sprintf("schedule: length=%d procs-used=%d/%d efficiency=%.2f",
		s.Length, s.ProcsUsed(), s.System.NumProcs(), s.Efficiency())
}

// Table returns a per-node listing sorted by start time, one line per node.
func (s *Schedule) Table() string {
	v := s.Graph.NumNodes()
	order := make([]int32, v)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := s.Place[order[i]], s.Place[order[j]]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return order[i] < order[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-4s %8s %8s\n", "node", "PE", "start", "finish")
	for _, n := range order {
		p := s.Place[n]
		fmt.Fprintf(&b, "%-8s %-4d %8d %8d\n", s.Graph.Label(n), p.Proc, p.Start, p.Finish)
	}
	return b.String()
}

// Gantt renders an ASCII Gantt chart like the paper's Figure 4: one column
// per PE that runs at least one task, time flowing downward. width is the
// column width in characters (minimum 6).
func (s *Schedule) Gantt(width int) string {
	if width < 6 {
		width = 6
	}
	var pes []int32
	seen := map[int32]bool{}
	for _, p := range s.Place {
		if !seen[p.Proc] {
			seen[p.Proc] = true
			pes = append(pes, p.Proc)
		}
	}
	sort.Slice(pes, func(i, j int) bool { return pes[i] < pes[j] })
	col := map[int32]int{}
	for i, pe := range pes {
		col[pe] = i
	}
	// Collect event times so each row is one interval boundary.
	timesSet := map[int32]bool{0: true, s.Length: true}
	for _, p := range s.Place {
		timesSet[p.Start] = true
		timesSet[p.Finish] = true
	}
	times := make([]int32, 0, len(timesSet))
	for t := range timesSet {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	cell := func(pe int32, t0, t1 int32) string {
		for n := 0; n < s.Graph.NumNodes(); n++ {
			p := s.Place[n]
			if p.Proc == pe && p.Start <= t0 && p.Finish >= t1 {
				if p.Start == t0 {
					return center(s.Graph.Label(int32(n)), width)
				}
				return center("|", width)
			}
		}
		return strings.Repeat(" ", width)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%8s ", "time")
	for _, pe := range pes {
		b.WriteString(center(fmt.Sprintf("PE %d", pe), width))
		b.WriteByte(' ')
	}
	b.WriteByte('\n')
	for i := 0; i+1 < len(times); i++ {
		t0, t1 := times[i], times[i+1]
		fmt.Fprintf(&b, "%8d ", t0)
		for _, pe := range pes {
			b.WriteString(cell(pe, t0, t1))
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%8d  (schedule length = %d)\n", s.Length, s.Length)
	return b.String()
}

func center(s string, w int) string {
	if len(s) >= w {
		return s[:w]
	}
	left := (w - len(s)) / 2
	return strings.Repeat(" ", left) + s + strings.Repeat(" ", w-len(s)-left)
}

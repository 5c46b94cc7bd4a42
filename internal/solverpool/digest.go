package solverpool

import (
	"hash/fnv"

	"repro/internal/procgraph"
	"repro/internal/taskgraph"
)

// The model cache is keyed by a digest of everything a compiled core.Model
// reads from its instance: the graph's structure (weights, labels, weighted
// edges) and the system's observable cost behaviour at exactly the weights
// the graph uses — ExecCost for every node weight on every PE, CommCost for
// every edge cost over every PE pair — plus the interchangeability classes
// the isomorphism pruning consumes. Because the digest covers precisely the
// inputs the model depends on, two instances that digest equal and compare
// equal (see sameInstance, which walks the same fields) yield
// interchangeable models; a 64-bit hash collision between genuinely
// different instances is caught by that exact comparison on cache hit.

type modelKey struct {
	graph  uint64
	system uint64
}

// InstanceDigest exposes the instance fingerprint pair for callers layering
// their own content-addressed stores on the pool's digest — the schedule
// cache keys on exactly this pair plus a configuration digest.
func InstanceDigest(g *taskgraph.Graph, sys *procgraph.System) (graph, system uint64) {
	k := instanceKey(g, sys)
	return k.graph, k.system
}

// Digest is an FNV-1a digest of the family the instance digests use, for
// callers keying their own stores next to them: the server mixes its solve
// configuration (engine list + wire budget) into one field by field.
type Digest uint64

// NewDigest returns the digest of nothing.
func NewDigest() Digest { return 14695981039346656037 }

// AddUint64 mixes v into d.
func (d *Digest) AddUint64(v uint64) { mix((*uint64)(d), v) }

// AddString mixes s into d, length first, so that no two sequences of
// strings mix the same bytes.
func (d *Digest) AddString(s string) {
	d.AddUint64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		*d ^= Digest(s[i])
		*d *= 1099511628211
	}
}

func instanceKey(g *taskgraph.Graph, sys *procgraph.System) modelKey {
	return modelKey{graph: graphDigest(g), system: systemDigest(g, sys)}
}

func mix(h *uint64, v uint64) {
	// FNV-1a step over the 8 bytes of v.
	for i := 0; i < 8; i++ {
		*h ^= (v >> (8 * i)) & 0xff
		*h *= 1099511628211
	}
}

func stringHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// graphDigest fingerprints the graph structure: node count, weights,
// labels, and the full weighted edge set, in structural (id) order.
func graphDigest(g *taskgraph.Graph) uint64 {
	d := stringHash(g.Name())
	mix(&d, uint64(g.NumNodes()))
	for n := int32(0); int(n) < g.NumNodes(); n++ {
		mix(&d, uint64(uint32(g.Weight(n))))
		mix(&d, stringHash(g.Label(n)))
		for _, a := range g.Succ(n) {
			mix(&d, uint64(uint32(n))<<32|uint64(uint32(a.Node)))
			mix(&d, uint64(uint32(a.Cost)))
		}
	}
	return d
}

// systemDigest fingerprints the system's cost behaviour at the weights the
// graph actually uses, so it covers exactly what model compilation reads.
func systemDigest(g *taskgraph.Graph, s *procgraph.System) uint64 {
	d := stringHash(s.Name())
	p := s.NumProcs()
	mix(&d, uint64(p))
	for n := int32(0); int(n) < g.NumNodes(); n++ {
		for pe := 0; pe < p; pe++ {
			mix(&d, uint64(uint32(s.ExecCost(g.Weight(n), pe))))
		}
	}
	for n := int32(0); int(n) < g.NumNodes(); n++ {
		for _, a := range g.Succ(n) {
			for i := 0; i < p; i++ {
				for j := 0; j < p; j++ {
					mix(&d, uint64(uint32(s.CommCost(a.Cost, i, j))))
				}
			}
		}
	}
	for _, c := range s.Classes() {
		mix(&d, uint64(uint32(c)))
	}
	return d
}

// sameInstance reports whether (g2, sys2) is model-equivalent to
// (g1, sys1): identical graph structure and identical cost behaviour over
// it — the exact confirmation behind a digest hit. Pointer-identical
// inputs (the common case for repeated solves of one instance) short-cut.
func sameInstance(g1 *taskgraph.Graph, sys1 *procgraph.System, g2 *taskgraph.Graph, sys2 *procgraph.System) bool {
	if g1 == g2 && sys1 == sys2 {
		return true
	}
	if g1.NumNodes() != g2.NumNodes() || g1.Name() != g2.Name() ||
		sys1.NumProcs() != sys2.NumProcs() || sys1.Name() != sys2.Name() {
		return false
	}
	p := sys1.NumProcs()
	for n := int32(0); int(n) < g1.NumNodes(); n++ {
		if g1.Weight(n) != g2.Weight(n) || g1.Label(n) != g2.Label(n) {
			return false
		}
		s1, s2 := g1.Succ(n), g2.Succ(n)
		if len(s1) != len(s2) {
			return false
		}
		for i := range s1 {
			if s1[i].Node != s2[i].Node || s1[i].Cost != s2[i].Cost {
				return false
			}
		}
		for pe := 0; pe < p; pe++ {
			if sys1.ExecCost(g1.Weight(n), pe) != sys2.ExecCost(g1.Weight(n), pe) {
				return false
			}
		}
		for _, a := range s1 {
			for i := 0; i < p; i++ {
				for j := 0; j < p; j++ {
					if sys1.CommCost(a.Cost, i, j) != sys2.CommCost(a.Cost, i, j) {
						return false
					}
				}
			}
		}
	}
	c1, c2 := sys1.Classes(), sys2.Classes()
	for i := range c1 {
		if c1[i] != c2[i] {
			return false
		}
	}
	return true
}

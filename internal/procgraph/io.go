package procgraph

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// This file is the wire surface of the package: a JSON form that round-trips
// any System (used by the network service in internal/server), and the
// compact "topology:size" spec syntax shared by cmd/icpp98 and the daemon's
// submit endpoint.

// jsonSystem is the JSON wire form of a System. Links are undirected and
// listed once each; Speeds and Link are omitted for the homogeneous
// hop-scaled default.
type jsonSystem struct {
	Name   string    `json:"name,omitempty"`
	Procs  int       `json:"procs"`
	Links  [][2]int  `json:"links"`
	Speeds []float64 `json:"speeds,omitempty"`
	Link   string    `json:"link,omitempty"` // "hop-scaled" (default) | "uniform"
}

// MarshalJSON encodes the system in the wire form FromJSON reads.
func (s *System) MarshalJSON() ([]byte, error) {
	js := jsonSystem{Name: s.name, Procs: s.n, Links: [][2]int{}}
	for i := 0; i < s.n; i++ {
		for _, nb := range s.adj[i] {
			if int32(i) < nb {
				js.Links = append(js.Links, [2]int{i, int(nb)})
			}
		}
	}
	if s.speed != nil {
		js.Speeds = s.speed
	}
	if s.link == LinkUniform {
		js.Link = "uniform"
	}
	return json.Marshal(js)
}

// FromJSON decodes a system previously encoded with MarshalJSON and
// revalidates it through New (connectivity, link ranges, speed sanity).
func FromJSON(data []byte) (*System, error) {
	var js jsonSystem
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, fmt.Errorf("procgraph: %w", err)
	}
	cfg := Config{Speeds: js.Speeds}
	switch js.Link {
	case "", "hop-scaled":
		cfg.Link = LinkHopScaled
	case "uniform":
		cfg.Link = LinkUniform
	default:
		return nil, fmt.Errorf("procgraph: unknown link model %q", js.Link)
	}
	return New(js.Name, js.Procs, js.Links, cfg)
}

// ParseSpec builds a System from the compact "topology:size" syntax used by
// the CLI's -procs flag and the daemon's submit request:
//
//	complete:N  ring:N  chain:N  star:N  hypercube:D  mesh:RxC  torus:RxC
//
// An empty spec selects Complete(defaultProcs) — one PE per task is the
// paper's TPE default. A spec of more than MaxProcs PEs is an error, found
// before any of the system is built.
func ParseSpec(spec string, defaultProcs int) (*System, error) {
	tooMany := func(what string) error {
		return fmt.Errorf("procgraph: processor spec %q has more than %d PEs", what, MaxProcs)
	}
	if spec == "" {
		if defaultProcs < 1 {
			return nil, fmt.Errorf("procgraph: empty spec needs a default size")
		}
		if defaultProcs > MaxProcs {
			return nil, tooMany(fmt.Sprintf("complete:%d", defaultProcs))
		}
		return Complete(defaultProcs), nil
	}
	name, arg, _ := strings.Cut(spec, ":")
	atoi := func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			return 0, fmt.Errorf("procgraph: bad processor spec %q", spec)
		}
		return n, nil
	}
	switch name {
	case "complete", "ring", "chain", "star", "hypercube":
		n, err := atoi(arg)
		if err != nil {
			return nil, err
		}
		// A hypercube has 1<<n PEs: compare the dimension, so a large one
		// cannot wrap the shift.
		if name == "hypercube" && n >= bits.Len(MaxProcs) || name != "hypercube" && n > MaxProcs {
			return nil, tooMany(spec)
		}
		switch name {
		case "complete":
			return Complete(n), nil
		case "ring":
			return Ring(n), nil
		case "chain":
			return Chain(n), nil
		case "star":
			return Star(n), nil
		default:
			return Hypercube(n), nil
		}
	case "mesh", "torus":
		rs, cs, ok := strings.Cut(arg, "x")
		if !ok {
			return nil, fmt.Errorf("procgraph: %s spec must be %s:RxC, got %q", name, name, spec)
		}
		r, err := atoi(rs)
		if err != nil {
			return nil, err
		}
		c, err := atoi(cs)
		if err != nil {
			return nil, err
		}
		if r > MaxProcs/c { // r*c > MaxProcs, without overflowing r*c
			return nil, tooMany(spec)
		}
		if name == "mesh" {
			return Mesh(r, c), nil
		}
		return Torus(r, c), nil
	default:
		return nil, fmt.Errorf("procgraph: unknown topology %q", name)
	}
}

package server

import (
	"encoding/binary"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/procgraph"
	"repro/internal/solverpool"
	"repro/internal/taskgraph"
)

// This file is the admission memo: most traffic resubmits the same
// instances, so a submission whose instance fields are byte-identical to
// an instance admitted before reuses the decoded, validated graph and
// system and their digests instead of parsing, validating and digesting
// them again. Entries match on full byte equality of the fields, never on
// a hash. Only instances that passed decodeInstance are memoized, so a
// rejected body is decoded again, and rejected again, every time.
//
// The jobs of one instance share its *taskgraph.Graph and
// *procgraph.System; both are read-only once built. Sharing the pointers
// also makes the pool's model memo and the schedule cache's exact
// confirmation (solverpool.ResultCache.Get) pointer checks.

// maxAdmittedInstances and maxAdmittedBytes bound the memo so a daemon
// fed a stream of distinct instances does not grow without limit;
// eviction is arbitrary (an instance is cheap to decode again relative to
// any solve), as in the pool's model memo.
const (
	maxAdmittedInstances = 256
	maxAdmittedBytes     = 64 << 20
)

// instance is one admitted (graph, system) pair.
type instance struct {
	graph  *taskgraph.Graph
	system *procgraph.System
	// graphDigest and systemDigest are solverpool.InstanceDigest of the
	// pair, computed once at admission; recovered jobs leave them zero
	// (they never consult the schedule cache).
	graphDigest, systemDigest uint64
	// encoded holds the canonical JSON forms once something needed them:
	// the file-backed store at admission, a cluster lease, or the record a
	// recovered job was read from. Nil until then.
	encoded atomic.Pointer[instanceJSON]
}

// newInstance wraps a validated pair and digests it.
func newInstance(g *taskgraph.Graph, sys *procgraph.System) *instance {
	in := &instance{graph: g, system: sys}
	in.graphDigest, in.systemDigest = solverpool.InstanceDigest(g, sys)
	return in
}

// instanceJSON is an instance's canonical wire encoding.
type instanceJSON struct {
	graph, system json.RawMessage
}

// encode returns the canonical JSON forms, marshalling them on first use;
// the file-backed store's WAL records and every cluster lease of the
// instance share them. Two racing first calls marshal twice and store
// equal bytes.
func (in *instance) encode() (graph, system json.RawMessage, err error) {
	if enc := in.encoded.Load(); enc != nil {
		return enc.graph, enc.system, nil
	}
	if graph, err = json.Marshal(in.graph); err != nil {
		return nil, nil, err
	}
	if system, err = json.Marshal(in.system); err != nil {
		return nil, nil, err
	}
	in.encoded.Store(&instanceJSON{graph: graph, system: system})
	return graph, system, nil
}

// admissionMemo maps the instance bytes of a submission to its admitted
// instance.
type admissionMemo struct {
	mu      sync.Mutex
	entries map[string]memoEntry
	bytes   int64
}

type memoEntry struct {
	inst   *instance
	charge int64
}

func newAdmissionMemo() *admissionMemo {
	return &admissionMemo{entries: map[string]memoEntry{}}
}

// admit returns the validated instance a submission names: the memoized
// one when its instance fields match an earlier admission byte for byte,
// else a fresh decodeInstance, memoized when it passes. Every error is a
// client error (HTTP 400).
func (m *admissionMemo) admit(req *SubmitRequest) (*instance, error) {
	key := instanceKey(req)
	m.mu.Lock()
	e, ok := m.entries[key]
	m.mu.Unlock()
	if ok {
		return e.inst, nil
	}
	g, sys, err := decodeInstance(req)
	if err != nil {
		return nil, err
	}
	in := newInstance(g, sys)
	// The charge estimates what the entry keeps resident: the key, the
	// canonical encodings at about the key's size, and the decoded pair.
	charge := 2*int64(len(key)) + g.Footprint() + sys.Footprint()
	if charge > maxAdmittedBytes {
		return in, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[key]; ok {
		return e.inst, nil // a racing submission of the same bytes won
	}
	for k, old := range m.entries {
		if len(m.entries) < maxAdmittedInstances && m.bytes+charge <= maxAdmittedBytes {
			break
		}
		delete(m.entries, k)
		m.bytes -= old.charge
	}
	m.entries[key] = memoEntry{inst: in, charge: charge}
	m.bytes += charge
	return in, nil
}

// instanceKey concatenates the request fields that define the instance
// — graph, graph_text, graph_stg, stg_edge_cost and system — each behind
// its length, so two requests share a key exactly when every field is
// byte-identical. It is built as a string so the one copy of the fields
// serves both the lookup and, on a miss, the memo's key.
func instanceKey(req *SubmitRequest) string {
	var b strings.Builder
	b.Grow(len(req.Graph) + len(req.GraphText) + len(req.GraphSTG) + len(req.System) + 5*binary.MaxVarintLen64)
	var n [binary.MaxVarintLen64]byte
	b.Write(binary.AppendUvarint(n[:0], uint64(len(req.Graph))))
	b.Write(req.Graph)
	b.Write(binary.AppendUvarint(n[:0], uint64(len(req.GraphText))))
	b.WriteString(req.GraphText)
	b.Write(binary.AppendUvarint(n[:0], uint64(len(req.GraphSTG))))
	b.WriteString(req.GraphSTG)
	b.Write(binary.AppendUvarint(n[:0], uint64(len(req.System))))
	b.Write(req.System)
	b.Write(binary.AppendVarint(n[:0], int64(req.STGEdgeCost)))
	return b.String()
}

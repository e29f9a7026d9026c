package gas

import (
	"fmt"
	"runtime"

	"snaple/internal/cluster"
	"snaple/internal/graph"
	"snaple/internal/partition"
)

// gref points at the copy of a vertex inside a specific partition.
type gref struct {
	part int32
	idx  int32
}

// part is one partition: the fleet's shard for it — local vertex table, edges
// as local indices, master flags — plus the vertex state of its replicas.
type part[V any] struct {
	*graph.ShardFile
	data   []V    // vertex state, one per local vertex
	master []gref // per local vertex: location of its master copy
}

// DistGraph is a graph distributed over a simulated cluster, ready to run
// GAS supersteps. Build one with Distribute.
type DistGraph[V any] struct {
	cut     *partition.Cut
	cl      *cluster.Cluster
	parts   []part[V]
	workers int
	mem     *memLedger
}

// Options configures Distribute.
type Options struct {
	// Workers bounds the number of partitions processed concurrently.
	// Zero means GOMAXPROCS.
	Workers int
	// Seed drives the deterministic master selection among replicas.
	Seed uint64
}

// Distribute places g's edges on cl's partitions according to assign — the
// vertex cut partition.NewCut builds, the same shards a fleet runs over —
// and gives every replica a zero V; use InitVertices to set initial state.
func Distribute[V any](g graph.View, assign partition.Assignment, cl *cluster.Cluster, opts Options) (*DistGraph[V], error) {
	if cl.Parts() != assign.Parts {
		return nil, fmt.Errorf("%w: assignment %d, cluster %d", ErrMismatchedParts, assign.Parts, cl.Parts())
	}
	cut, err := partition.NewCut(g, assign, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("gas: %w", err)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	dg := &DistGraph[V]{cut: cut, cl: cl, workers: workers, parts: make([]part[V], len(cut.Shards))}
	for p, sf := range cut.Shards {
		dg.parts[p] = part[V]{ShardFile: sf, data: make([]V, len(sf.Locals)), master: make([]gref, len(sf.Locals))}
	}
	for p, sf := range cut.Shards {
		for li, isM := range sf.IsMaster {
			if !isM {
				continue
			}
			at := gref{part: int32(p), idx: int32(li)}
			shards, locals := cut.Replicas(sf.Locals[li])
			for k, s := range shards {
				dg.parts[s].master[locals[k]] = at
			}
		}
	}
	return dg, nil
}

// ReplicationFactor returns the average number of replicas per non-isolated
// vertex, the key traffic driver of vertex-cut engines.
func (dg *DistGraph[V]) ReplicationFactor() float64 { return dg.cut.ReplicationFactor() }

// InitVertices sets the state of every replica of every vertex to fn(id).
// fn must be deterministic; it is invoked once per replica. No traffic is
// charged (this models the initial graph-load, which the paper's timings
// exclude).
func (dg *DistGraph[V]) InitVertices(fn func(graph.VertexID) V) {
	for _, pt := range dg.parts {
		for i, v := range pt.Locals {
			pt.data[i] = fn(v)
		}
	}
}

// ForEachMaster visits the authoritative copy of every vertex present in the
// distributed graph (vertices with no edges are absent), in ascending vertex
// order within each partition and ascending partition order across
// partitions. The pointer is valid only during the call.
func (dg *DistGraph[V]) ForEachMaster(fn func(graph.VertexID, *V)) {
	for _, pt := range dg.parts {
		for i, isM := range pt.IsMaster {
			if isM {
				fn(pt.Locals[i], &pt.data[i])
			}
		}
	}
}

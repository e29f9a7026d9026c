// Package gas implements a Gather-Apply-Scatter graph-computation engine in
// the style of GraphLab/PowerGraph (Gonzalez et al., OSDI'12), the platform
// the paper builds SNAPLE on.
//
// Within this repository, gas is the substrate behind the "sim" execution
// backend (internal/engine): its partitioning, replication and cost
// accounting exist to reproduce the paper's distributed behaviour and cost
// model faithfully. When only the predictions matter, prefer the "local"
// backend, which runs the same algorithm over shared memory without any of
// this machinery — the two are bit-identical by construction.
//
// Edges are placed on partitions by the vertex cut of internal/partition
// (partition.NewCut), so a sim partition is exactly the shard a fleet worker
// holds: a vertex whose edges span several partitions is replicated, with one
// replica designated master. A superstep (RunStep) then executes with
// bulk-synchronous semantics:
//
//	gather  — every partition folds the program's Gather over its local
//	          edges, at each edge's source (the out-edges of eq. 3), producing
//	          one partial sum per local vertex;
//	sum+apply — each master collects the partial sums of its vertex from the
//	          hosting partitions (cross-node transfers are charged to the
//	          cluster accountant) and runs Apply (eq. 4);
//	broadcast — mirrors pull the refreshed vertex data from their master
//	          (also charged).
//
// That is all SNAPLE and BASELINE need: every step of Algorithm 2 and of
// Algorithm 1 gathers over out-edges and keeps its state on vertices, so the
// engine has no in-edge gather, no scatter phase and no edge state. A
// computation over in-edges gathers over the transposed graph instead.
//
// The engine is generic over the vertex data V and the gather type G, so one
// distributed graph can run a pipeline of steps with different gather types
// — exactly what SNAPLE's Algorithm 2 needs.
//
// Contracts programs must follow (all SNAPLE/BASELINE programs do):
//
//   - Sum(a, b) may mutate and return a, and may consume b; partial sums are
//     discarded after the step. But a Sum may not write into storage that a
//     Gather returned from vertex state: several vertices gather the same
//     neighbour's row, within one partition and across concurrent ones, so
//     appending into its spare capacity corrupts their partials (clip it,
//     a[:len(a):len(a)], before appending).
//   - Apply may reorder sum in place; it is a partial sum too.
//   - Apply must *replace* reference-typed fields of V rather than mutating
//     their backing storage in place, because mirrors share that storage
//     until the next broadcast.
//   - Gather must treat both vertex arguments as read-only.
package gas

import (
	"errors"

	"snaple/internal/graph"
)

// Program is one GAS superstep specification. V is the vertex state, G the
// gather/partial-sum type.
type Program[V, G any] interface {
	// Gather produces the contribution of the edge (src, dst) to src's gather
	// sum. Returning false means "no contribution" (the paper's empty-set
	// returns).
	Gather(src, dst graph.VertexID, srcData, dstData *V) (G, bool)
	// Sum folds two gather values (the user-defined generalized sum ⊕pre /
	// union of eq. 3). It may mutate and return a; b may be consumed.
	Sum(a, b G) G
	// Apply updates the vertex state from the completed gather sum. has is
	// false when no edge contributed (sum is then the zero G).
	Apply(u graph.VertexID, data *V, sum G, has bool)
	// VertexBytes estimates the serialized size of a vertex state; it prices
	// master->mirror synchronisation and the per-node memory footprint.
	VertexBytes(*V) int64
	// GatherBytes estimates the serialized size of a partial sum; it prices
	// mirror->master collection traffic.
	GatherBytes(G) int64
}

// ErrMismatchedParts reports an assignment whose partition count differs
// from the cluster's.
var ErrMismatchedParts = errors.New("gas: assignment and cluster disagree on partition count")

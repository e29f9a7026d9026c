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
// Edges are placed on partitions by a vertex-cut (internal/partition); a
// vertex whose edges span several partitions is replicated, with one replica
// designated master. A superstep (RunStep) then executes the three GAS
// phases with bulk-synchronous semantics:
//
//	gather  — every partition folds the user's Gather over its local edges,
//	          producing one partial sum per local vertex (Σ of eq. 3);
//	sum+apply — each master collects the partial sums of its vertex from the
//	          hosting partitions (cross-node transfers are charged to the
//	          cluster accountant) and runs Apply (eq. 4);
//	scatter — optionally, the new vertex data updates local edge state
//	          (eq. 5); then masters broadcast the fresh vertex data to all
//	          mirrors (also charged).
//
// The engine is generic over the vertex data V, edge data E and the gather
// type G, so one distributed graph can run a pipeline of steps with
// different gather types — exactly what SNAPLE's Algorithm 2 needs.
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
	"fmt"

	"snaple/internal/graph"
)

// Direction selects which edges a program gathers over.
type Direction int

const (
	// Out gathers at each vertex u over its outgoing edges (u,v) — the
	// direction used by every program in the paper (eq. 3).
	Out Direction = iota
	// In gathers at each vertex v over its incoming edges (u,v).
	In
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Out:
		return "out"
	case In:
		return "in"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Program is one GAS superstep specification. V is the vertex state, E the
// edge state, G the gather/partial-sum type.
type Program[V, E, G any] interface {
	// Direction reports which adjacency the gather phase walks.
	Direction() Direction
	// Gather produces the contribution of one edge to the gather sum of the
	// gathering endpoint (src for Out, dst for In). Returning false means
	// "no contribution" (the paper's empty-set returns).
	Gather(src, dst graph.VertexID, srcData, dstData *V, edge *E) (G, bool)
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

// Scatterer is an optional Program extension running the scatter phase
// (eq. 5): after apply, every local edge in the program's direction sees the
// refreshed data of its gathering endpoint and may update its edge state.
type Scatterer[V, E, G any] interface {
	Scatter(src, dst graph.VertexID, srcData *V, edge *E)
}

// Errors returned by the engine.
var (
	// ErrMismatchedParts reports an assignment whose partition count differs
	// from the cluster's.
	ErrMismatchedParts = errors.New("gas: assignment and cluster disagree on partition count")
	// ErrNeedInEdges reports an In-direction program on a graph built
	// without reverse adjacency. (The engine itself derives everything from
	// edge placement, so this currently cannot happen, but the sentinel is
	// kept for API stability of future in-gather optimisations.)
	ErrNeedInEdges = errors.New("gas: program gathers over in-edges but graph lacks them")
)

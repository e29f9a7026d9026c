// Package graph provides a compact directed-graph representation (CSR) and
// the loading, generation-support and statistics routines the rest of the
// repository builds on.
//
// Vertices are dense uint32 identifiers in [0, NumVertices). Adjacency is
// stored in compressed sparse row form with per-vertex neighbour lists kept
// sorted, which makes membership tests (HasEdge) logarithmic and set
// operations (Jaccard and friends in internal/core) linear merges.
//
// Every graph built from edges — by Builder, BuildStream or the text
// ingester — goes through one parallel two-pass counting sort, assembleCSR
// (count per-source degrees, prefix-sum into offsets, scatter
// destinations, then sort and deduplicate each row in parallel), instead
// of a global comparison sort over the edge list, so ingest scales with
// cores and with edge count rather than E log E — the property that keeps
// billion-edge graph construction (Section 5's headline scale) tractable on
// one machine. OpenGraphFile is the one file opener; ReadGraphFile wraps it
// for callers that need a plain CSR.
// Mutation never rewrites the CSR: Delta overlays sorted per-vertex
// add/remove lists on an immutable base and skip-merges them on the fly
// (WithoutEdges is the remove-only case), and the View interface lets every
// consumer run over either representation.
package graph

import (
	"errors"
	"fmt"
)

// VertexID identifies a vertex. IDs are dense: a graph with n vertices uses
// exactly the IDs 0..n-1.
type VertexID uint32

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src, Dst VertexID
}

// Digraph is an immutable directed graph in CSR form. Construct one with a
// Builder or FromEdges; the zero value is an empty graph.
type Digraph struct {
	numVertices int
	outOff      []int64 // len numVertices+1; outAdj[outOff[u]:outOff[u+1]] sorted
	outAdj      []VertexID
	inOff       []int64 // optional reverse adjacency (see Builder.WithInEdges)
	inAdj       []VertexID
}

// NumVertices returns the number of vertices.
func (g *Digraph) NumVertices() int { return g.numVertices }

// NumEdges returns the number of directed edges.
func (g *Digraph) NumEdges() int { return len(g.outAdj) }

// OutDegree returns |Γ(u)|, the number of outgoing edges of u.
func (g *Digraph) OutDegree(u VertexID) int {
	return int(g.outOff[u+1] - g.outOff[u])
}

// OutNeighbors returns the sorted out-neighbour list of u. The returned slice
// aliases the graph's storage and must not be modified.
func (g *Digraph) OutNeighbors(u VertexID) []VertexID {
	return g.outAdj[g.outOff[u]:g.outOff[u+1]]
}

// HasInEdges reports whether the reverse adjacency was materialised.
func (g *Digraph) HasInEdges() bool { return g.inOff != nil }

// InDegree returns |Γ⁻¹(u)|. It panics unless the graph was built with
// in-edges (Builder.WithInEdges).
func (g *Digraph) InDegree(u VertexID) int {
	return int(g.inOff[u+1] - g.inOff[u])
}

// InNeighbors returns the sorted in-neighbour list of u. It panics unless the
// graph was built with in-edges. The returned slice aliases the graph's
// storage and must not be modified.
func (g *Digraph) InNeighbors(u VertexID) []VertexID {
	return g.inAdj[g.inOff[u]:g.inOff[u+1]]
}

// HasEdge reports whether the directed edge (u,v) exists. The hand-rolled
// binary search (rather than sort.Search) keeps the per-probe closure out
// of a call that sits on membership-test hot paths.
func (g *Digraph) HasEdge(u, v VertexID) bool {
	lo, hi := g.outOff[u], g.outOff[u+1]
	for lo < hi {
		mid := int64(uint64(lo+hi) >> 1)
		if g.outAdj[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < g.outOff[u+1] && g.outAdj[lo] == v
}

// ForEachEdge calls fn for every directed edge in (src, dst) order.
func (g *Digraph) ForEachEdge(fn func(u, v VertexID)) {
	for u := 0; u < g.numVertices; u++ {
		for _, v := range g.OutNeighbors(VertexID(u)) {
			fn(VertexID(u), v)
		}
	}
}

// Edges materialises the edge list in (src, dst) order.
func (g *Digraph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	g.ForEachEdge(func(u, v VertexID) { out = append(out, Edge{u, v}) })
	return out
}

// OutDegrees returns the out-degree of every vertex.
func (g *Digraph) OutDegrees() []int {
	out := make([]int, g.numVertices)
	for u := range out {
		out[u] = g.OutDegree(VertexID(u))
	}
	return out
}

// String summarises the graph for logs.
func (g *Digraph) String() string {
	return fmt.Sprintf("digraph{V=%d E=%d}", g.NumVertices(), g.NumEdges())
}

// WithoutEdges returns a remove-only Delta view of g with the given
// directed edges removed. Edges absent from g (including out-of-range
// endpoints) are ignored, and duplicates in removed are harmless. This
// backs the evaluation protocol of Section 5.2, which hides a sample of
// edges and asks the predictor to recover them — the overlay costs
// O(R log d) instead of an O(E) copy, and it is the same code path live
// mutation uses (see Delta), so eval-time removal and online serving
// exercise one merge implementation.
func (g *Digraph) WithoutEdges(removed []Edge) *Delta {
	d, err := NewDelta(g).Apply(nil, clampEdges(g.numVertices, removed))
	if err != nil {
		panic("graph: WithoutEdges after filtering: " + err.Error())
	}
	return d
}

// clampEdges drops entries with endpoints outside [0, n), returning edges
// itself when nothing needs dropping.
func clampEdges(n int, edges []Edge) []Edge {
	for i, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			// First out-of-range entry: switch to a filtered copy.
			out := append(make([]Edge, 0, len(edges)-1), edges[:i]...)
			for _, e := range edges[i+1:] {
				if int(e.Src) < n && int(e.Dst) < n {
					out = append(out, e)
				}
			}
			return out
		}
	}
	return edges
}

// errInvalidVertex is wrapped by edgeOutOfRange and Delta for out-of-range
// endpoints.
var errInvalidVertex = errors.New("vertex id out of range")

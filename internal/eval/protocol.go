// Package eval implements the paper's evaluation protocol (Section 5.2) and
// the experiment runners that regenerate every table and figure of the
// evaluation (Section 5), on synthetic analogs of the paper's datasets.
package eval

import (
	"fmt"
	"math"
	"slices"

	"snaple/internal/core"
	"snaple/internal/graph"
	"snaple/internal/randx"
	"snaple/internal/topk"
)

// Split is a link-prediction train/test split: the training graph with some
// edges hidden, and the hidden edges per vertex.
type Split struct {
	// Train is the training view: the full graph behind a remove-only
	// Delta overlay hiding the sampled edges.
	Train graph.View
	// Removed maps each vertex to its hidden out-edge targets (sorted).
	Removed map[graph.VertexID][]graph.VertexID
	// NumRemoved is the total number of hidden edges.
	NumRemoved int
}

// MakeSplit hides perVertex outgoing edges of every vertex with out-degree
// greater than 3, following the protocol of Section 5.2 (after [35]): if a
// vertex has fewer edges than requested, all but one are removed. The choice
// is a deterministic hash draw keyed by (seed, u, v).
func MakeSplit(g *graph.Digraph, perVertex int, seed uint64) (*Split, error) {
	if perVertex < 1 {
		return nil, fmt.Errorf("eval: perVertex=%d, need >= 1", perVertex)
	}
	s := &Split{Removed: make(map[graph.VertexID][]graph.VertexID)}
	var removedEdges []graph.Edge
	for u := 0; u < g.NumVertices(); u++ {
		uid := graph.VertexID(u)
		deg := g.OutDegree(uid)
		if deg <= 3 {
			continue
		}
		r := min(perVertex, deg-1) // "we removed all the edges except one"
		nbrs := g.OutNeighbors(uid)
		// Rank neighbours by a per-(u,v) hash and hide the r smallest —
		// a uniform sample without replacement, independent of order.
		items := make([]topk.Item, len(nbrs))
		for i, v := range nbrs {
			items[i] = topk.Item{ID: uint32(v), Score: randx.Float64(seed^0x5EED, uint64(u), uint64(v))}
		}
		chosen := topk.Bottom(r, items)
		hidden := make([]graph.VertexID, 0, len(chosen))
		for _, it := range chosen {
			hidden = append(hidden, graph.VertexID(it.ID))
		}
		slices.Sort(hidden)
		s.Removed[uid] = hidden
		for _, v := range hidden {
			removedEdges = append(removedEdges, graph.Edge{Src: uid, Dst: v})
		}
	}
	s.NumRemoved = len(removedEdges)
	s.Train = g.WithoutEdges(removedEdges)
	return s, nil
}

// Recall returns the fraction of hidden edges recovered by pred — the
// paper's quality metric. (Precision is proportional to recall in this
// protocol and therefore not reported; see Section 5.2.)
func Recall(pred core.Predictions, s *Split) float64 { return RecallAt(pred, s, math.MaxInt) }

// RecallAt computes recall using only the first k predictions per vertex.
func RecallAt(pred core.Predictions, s *Split, k int) float64 {
	if s.NumRemoved == 0 {
		return 0
	}
	hits := 0
	for u, hidden := range s.Removed {
		if int(u) >= len(pred) {
			continue
		}
		for _, p := range pred[u][:min(k, len(pred[u]))] {
			if _, ok := slices.BinarySearch(hidden, p.Vertex); ok {
				hits++
			}
		}
	}
	return float64(hits) / float64(s.NumRemoved)
}

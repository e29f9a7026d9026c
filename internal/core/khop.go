package core

import "snaple/internal/graph"

// 3-hop path extension.
//
// Footnote 2 of the paper: "We limit ourselves to 2-hop paths, but this
// approach can be extended to longer paths by recursively applying ⊗ to the
// raw similarities of individual edges (in functional terms, essentially
// executing a fold operation on the raw similarity values along the path)."
//
// This file implements that extension for 3-hop paths. The fold is applied
// right-associatively — sim*(u→v→z→w) = sim(u,v) ⊗ (sim(v,z) ⊗ sim(z,w)) —
// because that is the shape the GAS model can evaluate with adjacent-only
// access: every vertex v first materialises its own 2-hop path list
// (step 3a), and the final step (3b) extends each neighbour's list by one
// edge. For associative combinators the direction is irrelevant; for the
// linear combinator it is a definition choice, documented here.
//
// The candidate set becomes Γ²(u) ∪ Γ³(u) (minus Γ̂(u) ∪ {u}), sampled
// through the same k_local relays, and the aggregation folds 2-hop and
// 3-hop path-similarities of a candidate together. The candidate space
// grows to O(k_local³); use small k_local values.

// ReferenceSnaple3Hop is the serial oracle for the 3-hop extension,
// bit-identical to the distributed pipeline (steps 1, 2, 3a, 3b) and to the
// parallel shared-memory backend.
func ReferenceSnaple3Hop(g graph.View, cfg Config) (Predictions, error) {
	r, err := NewStepRunner(g, cfg)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	s := r.NewScratch()

	// Steps 1-2 shared with the 2-hop reference.
	trunc, sims := runSteps12(r, n, s)

	// Step 3a: per-vertex 2-hop path lists, in a flat arena (scoped runs
	// visit only the sources' relays).
	f := r.Frontier()
	twoHop := NewArena[PathCand](n)
	eachScoped(n, f, DistTwoHop, func(v graph.VertexID) {
		twoHop.SetCount(v, r.TwoHopCount(v, sims))
	})
	twoHop.FinishCounts()
	eachScoped(n, f, DistTwoHop, func(v graph.VertexID) {
		r.TwoHopFill(v, sims, twoHop.Row(v), s)
	})

	// Step 3b: final aggregation over 2- and 3-hop paths.
	pred := make(Predictions, n)
	var buf []Prediction
	eachScoped(n, f, DistCombine3, func(u graph.VertexID) {
		start := len(buf)
		buf = r.Combine3Append(u, trunc, sims, twoHop, s, buf)
		if len(buf) > start {
			pred[u] = buf[start:len(buf):len(buf)]
		}
	})
	return pred, nil
}

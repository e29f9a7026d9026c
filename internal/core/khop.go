package core

import (
	"cmp"
	"slices"

	"snaple/internal/graph"
)

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

// step3a materialises at every vertex v its sampled 2-hop path list
// {(w, sim(v,z) ⊗ sim(z,w)) : z ∈ sims(v), w ∈ sims(z), w ≠ v}.
type step3a struct{ r *StepRunner }

// Gather emits v's 2-hop paths through the edge (v,z); only edges to
// relays contribute (appendTwoHop).
func (p step3a) Gather(src, dst graph.VertexID, srcD, dstD *VData) ([]PathCand, bool) {
	if !p.r.frontier.InTwoHop(src) {
		return nil, false
	}
	out := appendTwoHop(p.r.cfg.Score.Comb, nil, src, dst, srcD, dstD)
	return out, len(out) > 0
}

// Sum merges sorted path lists (same as step 3).
func (step3a) Sum(a, b []PathCand) []PathCand { return step3{}.Sum(a, b) }

// Apply implements gas.Program (applyTwoHop).
func (step3a) Apply(u graph.VertexID, d *VData, sum []PathCand, _ bool) {
	var s Scratch
	d.TwoHop = s.applyTwoHop(u, sum, nil)
}

// VertexBytes implements gas.Program.
func (step3a) VertexBytes(v *VData) int64 { return vdataBytes(v) }

// GatherBytes prices the flat per-path list (12 B per path): unlike the
// final step, the intermediate list cannot be pre-folded because each entry
// extends differently in step 3b.
func (step3a) GatherBytes(g []PathCand) int64 { return 12 * int64(len(g)) }

// step3b combines 2-hop and 3-hop paths into final predictions.
type step3b struct{ r *StepRunner }

// Gather emits, for the edge (u,v) with relay v: the 2-hop paths u→v→z and
// the 3-hop paths u→v→(z→w) obtained by extending v's stored 2-hop list
// (appendCombine3).
func (p step3b) Gather(src, dst graph.VertexID, srcD, dstD *VData) ([]PathCand, bool) {
	if !p.r.frontier.InPred(src) {
		return nil, false
	}
	out := appendCombine3(p.r.cfg.Score.Comb, nil, src, dst, srcD, dstD)
	// Contributions interleave Sims and TwoHop candidates: restore the Z order
	// Sum's merge expects.
	slices.SortStableFunc(out, func(a, b PathCand) int { return cmp.Compare(a.Z, b.Z) })
	return out, len(out) > 0
}

// Sum merges sorted path lists.
func (step3b) Sum(a, b []PathCand) []PathCand { return step3{}.Sum(a, b) }

// Apply aggregates per candidate and selects the top-k (same as step 3).
func (p step3b) Apply(u graph.VertexID, d *VData, sum []PathCand, has bool) {
	step3(p).Apply(u, d, sum, has)
}

// VertexBytes implements gas.Program.
func (step3b) VertexBytes(v *VData) int64 { return vdataBytes(v) }

// GatherBytes prices per distinct candidate like the final 2-hop step.
func (step3b) GatherBytes(g []PathCand) int64 { return step3{}.GatherBytes(g) }

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

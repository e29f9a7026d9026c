package core

import (
	"cmp"
	"fmt"
	"slices"

	"snaple/internal/cluster"
	"snaple/internal/gas"
	"snaple/internal/graph"
	"snaple/internal/partition"
	"snaple/internal/topk"
)

// BASELINE is the comparison system of Section 5.3: Algorithm 1 implemented
// directly on the GAS engine with Jaccard scoring and the 2-hop candidate
// optimisation. Because the GAS model only exposes adjacent vertices, the
// neighbourhood Γ(z) of every 2-hop candidate z must be propagated hop by
// hop (Figure 1): step 1 collects Γ(u) at u, step 2 replicates each
// neighbour's full neighbourhood onto u, and step 3 forwards those onto the
// 2-hop sources, which finally hold enough state to evaluate
// Jaccard(Γ(u), Γ(z)). The redundant transfers and storage this causes are
// the point — they are what exhausts memory on large graphs.

// nbrList is a neighbour's identity with its full neighbourhood.
type nbrList struct {
	V    graph.VertexID
	Nbrs []graph.VertexID
}

// bdata is BASELINE's per-vertex state.
type bdata struct {
	Nbrs []graph.VertexID // Γ(u), sorted
	Two  []nbrList        // (v, Γ(v)) for each direct neighbour v, sorted by V
	Pred []Prediction
}

func bdataBytes(d *bdata) int64 {
	n := int64(24) + 4*int64(len(d.Nbrs)) + 12*int64(len(d.Pred))
	for i := range d.Two {
		n += 8 + 4*int64(len(d.Two[i].Nbrs))
	}
	return n
}

func nbrListsBytes(ls []nbrList) int64 {
	var n int64
	for i := range ls {
		n += 8 + 4*int64(len(ls[i].Nbrs))
	}
	return n
}

// ---- Step 1: collect the full neighbourhood (no truncation). ----

type bstep1 struct{}

// Gather emits {v}.
func (bstep1) Gather(_, dst graph.VertexID, _, _ *bdata) ([]graph.VertexID, bool) {
	return []graph.VertexID{dst}, true
}

// Sum implements gas.Program.
func (bstep1) Sum(a, b []graph.VertexID) []graph.VertexID { return append(a, b...) }

// Apply implements gas.Program.
func (bstep1) Apply(_ graph.VertexID, d *bdata, sum []graph.VertexID, has bool) {
	if !has {
		d.Nbrs = nil
		return
	}
	nbrs := append([]graph.VertexID(nil), sum...)
	slices.Sort(nbrs)
	d.Nbrs = nbrs
}

// VertexBytes implements gas.Program.
func (bstep1) VertexBytes(d *bdata) int64 { return bdataBytes(d) }

// GatherBytes implements gas.Program.
func (bstep1) GatherBytes(g []graph.VertexID) int64 { return 4 * int64(len(g)) }

// ---- Step 2: replicate each neighbour's neighbourhood onto u. ----

type bstep2 struct{}

// Gather emits (v, Γ(v)) — the full neighbour list travels the edge, the
// data flow equation (7) warns about.
func (bstep2) Gather(_, dst graph.VertexID, _, dstD *bdata) ([]nbrList, bool) {
	return []nbrList{{V: dst, Nbrs: dstD.Nbrs}}, true
}

// Sum implements gas.Program.
func (bstep2) Sum(a, b []nbrList) []nbrList { return append(a, b...) }

// Apply implements gas.Program.
func (bstep2) Apply(_ graph.VertexID, d *bdata, sum []nbrList, has bool) {
	if !has {
		d.Two = nil
		return
	}
	two := append([]nbrList(nil), sum...)
	slices.SortFunc(two, func(a, b nbrList) int { return cmp.Compare(a.V, b.V) })
	d.Two = two
}

// VertexBytes implements gas.Program.
func (bstep2) VertexBytes(d *bdata) int64 { return bdataBytes(d) }

// GatherBytes implements gas.Program.
func (bstep2) GatherBytes(g []nbrList) int64 { return nbrListsBytes(g) }

// ---- Step 3: forward 2-hop neighbourhoods and score. ----

type bstep3 struct{ k int }

// Gather forwards the neighbour's stored (z, Γ(z)) map to u.
func (bstep3) Gather(_, _ graph.VertexID, _, dstD *bdata) ([]nbrList, bool) {
	if len(dstD.Two) == 0 {
		return nil, false
	}
	return dstD.Two, true
}

// Sum implements gas.Program. Duplicated candidates (z reachable through
// several neighbours) are deduplicated in Apply; carrying them until then is
// exactly the redundant transfer of the naive approach. a may be a
// neighbour's stored Two, which other vertices gather too: clipping it makes
// the append copy instead of writing into that row's spare capacity.
func (bstep3) Sum(a, b []nbrList) []nbrList { return append(a[:len(a):len(a)], b...) }

// Apply scores every distinct 2-hop candidate with Jaccard on the full
// neighbourhoods and keeps the top k (Algorithm 1, line 2 restricted to
// Γ²(u) \ Γ(u)).
func (s bstep3) Apply(u graph.VertexID, d *bdata, sum []nbrList, has bool) {
	if !has {
		d.Pred = nil
		return
	}
	coll := topk.New(s.k)
	seen := make(map[graph.VertexID]struct{}, len(sum))
	var jac Jaccard
	for i := range sum {
		z := sum[i].V
		if z == u || containsVertex(d.Nbrs, z) {
			continue
		}
		if _, dup := seen[z]; dup {
			continue
		}
		seen[z] = struct{}{}
		coll.Push(uint32(z), jac.Score(d.Nbrs, sum[i].Nbrs, 0, 0))
	}
	items := coll.Result()
	if len(items) == 0 {
		d.Pred = nil
		return
	}
	pred := make([]Prediction, len(items))
	for i, it := range items {
		pred[i] = Prediction{Vertex: graph.VertexID(it.ID), Score: it.Score}
	}
	d.Pred = pred
}

// VertexBytes implements gas.Program.
func (bstep3) VertexBytes(d *bdata) int64 { return bdataBytes(d) }

// GatherBytes implements gas.Program.
func (bstep3) GatherBytes(g []nbrList) int64 { return nbrListsBytes(g) }

// PredictBaselineGAS runs the BASELINE system on the distributed engine.
// k is the number of predictions per vertex. On large graphs with bounded
// node memory this returns an error wrapping cluster.ErrMemoryExhausted —
// reproducing the paper's "naive GraphLab version fails due to resource
// exhaustion".
func PredictBaselineGAS(g graph.View, assign partition.Assignment, cl *cluster.Cluster, k int) (*Result, error) {
	return PredictBaselineGASWorkers(g, assign, cl, k, 0)
}

// PredictBaselineGASWorkers is PredictBaselineGAS with an explicit bound on
// the number of partitions processed concurrently (0 = GOMAXPROCS). As with
// PredictGASWorkers, the bound only affects host wall-clock time.
func PredictBaselineGASWorkers(g graph.View, assign partition.Assignment, cl *cluster.Cluster, k, workers int) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: baseline k=%d, need >= 1", k)
	}
	dg, err := gas.Distribute[bdata](g, assign, cl, gas.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	res := &Result{ReplicationFactor: dg.ReplicationFactor()}

	s1, err := gas.RunStep[bdata, []graph.VertexID](dg, bstep1{})
	res.record(s1)
	if err != nil {
		return res, fmt.Errorf("baseline step 1: %w", err)
	}
	s2, err := gas.RunStep[bdata, []nbrList](dg, bstep2{})
	res.record(s2)
	if err != nil {
		return res, fmt.Errorf("baseline step 2: %w", err)
	}
	s3, err := gas.RunStep[bdata, []nbrList](dg, bstep3{k: k})
	res.record(s3)
	if err != nil {
		return res, fmt.Errorf("baseline step 3: %w", err)
	}

	res.Pred = make(Predictions, g.NumVertices())
	dg.ForEachMaster(func(v graph.VertexID, d *bdata) {
		if len(d.Pred) > 0 {
			res.Pred[v] = d.Pred
		}
	})
	return res, nil
}

package core

import (
	"cmp"
	"slices"

	"snaple/internal/graph"
	"snaple/internal/topk"
)

// BASELINE is the comparison system of Section 5.3: Algorithm 1 implemented
// directly on the GAS model with Jaccard scoring and the 2-hop candidate
// optimisation. Because the GAS model only exposes adjacent vertices, the
// neighbourhood Γ(z) of every 2-hop candidate z must be propagated hop by
// hop (Figure 1): step 1 collects Γ(u) at u (DistTruncate with thrΓ
// unlimited), step 2 replicates each neighbour's full neighbourhood onto u
// (DistReplicate), and step 3 forwards those onto the 2-hop sources, which
// finally hold enough state to evaluate Jaccard(Γ(u), Γ(z)) (DistJaccard).
// The redundant transfers and storage this causes are the point — they are
// what exhausts memory on large graphs. The replicated lists live in a
// column only BASELINE jobs allocate, and its steps run in process only
// (ErrInProcessStep).

// BaselineSteps is BASELINE's superstep pipeline.
func BaselineSteps() []DistStep { return []DistStep{DistTruncate, DistReplicate, DistJaccard} }

// nbrList is a neighbour's identity with its full neighbourhood.
type nbrList struct {
	V    graph.VertexID
	Nbrs []graph.VertexID
}

// nbrListsBytes prices replicated lists: the id, a length and 4 B per
// neighbour each.
func nbrListsBytes(ls []nbrList) int64 {
	var n int64
	for i := range ls {
		n += 8 + 4*int64(len(ls[i].Nbrs))
	}
	return n
}

// NewBaselinePartition opens a full BASELINE job over a validated shard, for
// the top k of every vertex: NewDistPartition's slots, plus the replicated
// lists' column.
func NewBaselinePartition(k int, shard *graph.ShardFile) (*DistPartition, error) {
	if k < 1 {
		return nil, errBaselineK(k)
	}
	p := newFullPartition(Config{K: k, ThrGamma: Unlimited}, shard)
	p.two = make([][]nbrList, len(shard.Locals))
	return p, nil
}

// gatherLists is BASELINE's gather for slot s, appended to the held lists:
// step 2 emits (v, Γ(v)) per edge — the full neighbour list travels the
// edge, the data flow equation (7) warns about — and step 3 forwards the
// neighbour's stored lists. A BASELINE job is full-form, so an edge's
// destination local index is its slot.
func (p *DistPartition) gatherLists(step DistStep, s int32) {
	r := p.runs[s]
	for _, di := range p.shard.EdgeDst[r.lo:r.hi] {
		var add []nbrList
		if step == DistReplicate {
			add = []nbrList{{V: p.verts[di], Nbrs: p.data[di].Nbrs}}
		} else if add = p.two[di]; len(add) == 0 {
			continue
		}
		p.held.lists = append(p.held.lists, add...)
		if !p.price(nbrListsBytes(add)) {
			return
		}
	}
}

// applyLists is BASELINE's apply for slot s. Step 2 keeps the gathered lists
// sorted by neighbour. Step 3 scores every distinct 2-hop candidate with
// Jaccard on the full neighbourhoods and keeps the top k (Algorithm 1, line
// 2 restricted to Γ²(u) \ Γ(u)); duplicated candidates (z reachable through
// several neighbours) are carried until here, exactly the redundant transfer
// of the naive approach. Neither retains sum.
func (p *DistPartition) applyLists(step DistStep, s int32, sum []nbrList) {
	if step == DistReplicate {
		p.two[s] = nil
		if len(sum) > 0 {
			p.two[s] = slices.Clone(sum)
			slices.SortFunc(p.two[s], func(a, b nbrList) int { return cmp.Compare(a.V, b.V) })
		}
		return
	}
	u, d := p.verts[s], &p.data[s]
	coll := topk.New(p.cfg.K)
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
	d.Pred = appendItems(nil, coll.Result())
}

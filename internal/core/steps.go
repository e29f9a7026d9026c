package core

import (
	"cmp"
	"slices"
	"sort"

	"snaple/internal/graph"
	"snaple/internal/randx"
	"snaple/internal/topk"
)

// This file is the one home of Algorithm 2's per-step logic. The logic is a
// set of kernels over rows — sorted id lists, V-sorted relay rows, Z-ordered
// candidate runs — that take degrees as integers and never touch a graph:
//
//   - step 1: keepTruncated (the hash-keyed Γ̂ draw);
//   - step 2: Similarity.Score, relayCount and Scratch.selectRelays (the
//     k_local policy);
//   - step 3: appendRelayPaths and appendExtendedPaths (line 15's candidate
//     rule, through one relay), Scratch.appendFoldSorted (⊕ and top-k);
//   - the per-edge gathers appendCombine / appendTwoHop / appendCombine3 and
//     the per-vertex applies applyTruncate / applyRelays / applyTwoHop /
//     applyCombine, which a GAS substrate calls around the exchange.
//
// Every substrate is a scheduler of these kernels and owns no step logic:
//
//   - StepRunner (below) runs them per vertex over arenas, for the parallel
//     shared-memory backend (internal/engine), the serial references
//     (reference.go, khop.go) and the supervised features (supervised.go);
//   - the GAS step programs step1/2/3/3a/3b (snaple.go, khop.go) run the
//     gathers per edge and the applies per master, for the simulated cluster;
//   - DistPartition (diststep.go) runs the same gathers over a shard's source
//     runs and the same applies, for the wire worker.
//
// StepRunner follows the Arena build protocol (arena.go): every step runs a
// cheap count pass (TruncateCount, RelayCount, TwoHopCount) and then a fill
// pass (TruncateFill, RelaysFill, TwoHopFill) into preallocated rows of one
// flat backing array, so the steady-state loop performs zero heap
// allocations per vertex. Final predictions append into caller-owned buffers
// (CombineAppend, Combine3Append) because their sizes are only known after
// aggregation.
//
// All kernels are deterministic in (graph, Config): truncation and the Γrnd
// selection draw from hashes keyed by (seed, u, v), selection breaks ties by
// id, and aggregation folds path values in sorted order
// (Aggregator.FoldPaths), so every scheduler produces bit-identical
// Predictions however it orders the work.

// PathCand is one path's contribution to candidate Z: the combined
// path-similarity of equation (8). Lists are kept sorted by Z so grouping is
// a linear scan and merging preserves order.
type PathCand struct {
	Z graph.VertexID
	S float64
}

// sortPathCands orders candidates by Z ascending. Values for the same Z may
// appear in any relative order: FoldPaths sorts them before folding.
func sortPathCands(cands []PathCand) {
	slices.SortFunc(cands, func(a, b PathCand) int { return cmp.Compare(a.Z, b.Z) })
}

// lookupSim binary-searches a V-sorted similarity list.
func lookupSim(sims []VertexSim, v graph.VertexID) (float64, bool) {
	i := sort.Search(len(sims), func(i int) bool { return sims[i].V >= v })
	if i < len(sims) && sims[i].V == v {
		return sims[i].Sim, true
	}
	return 0, false
}

// ---- Step 1 kernel: truncated neighbourhoods Γ̂ (Algorithm 2, lines 1-6) ----

const (
	truncSalt  = 0x51AF1E01
	rndSelSalt = 0x51AF1E02
)

// keepTruncated reports whether the truncation of Algorithm 2 (line 3)
// retains neighbour v of vertex u whose out-degree is deg. The decision is a
// hash draw keyed by (seed, u, v), so it is independent of evaluation order
// and identical on every scheduler.
func keepTruncated(seed uint64, u, v graph.VertexID, deg, thr int) bool {
	if thr == Unlimited || deg <= thr {
		return true
	}
	return randx.Float64(seed^truncSalt, uint64(u), uint64(v)) < float64(thr)/float64(deg)
}

// ---- Step 2 kernels: similarities and k_local relays (lines 7-11) ----

// relayCount returns how many of n candidate relays step 2 keeps: all of
// them, capped at kLocal when the sampling bound is set. The selection
// policy only decides which relays survive, never how many.
func relayCount(kLocal, n int) int {
	if kLocal != Unlimited && n > kLocal {
		return kLocal
	}
	return n
}

// selectRelays is the k_local selection of lines 10-11: it writes to dst,
// which must have length relayCount(cfg.KLocal, len(cands)), the relays the
// policy keeps out of the V-sorted candidate row cands, still V-sorted. Γmax
// ranks by similarity, Γmin by negated similarity, Γrnd by a hash keyed by
// (seed, u, v); the collector's order is strict (ties go to the lower id),
// so the kept set does not depend on the row's order.
func (s *Scratch) selectRelays(cfg *Config, u graph.VertexID, cands, dst []VertexSim) {
	if len(dst) == len(cands) {
		copy(dst, cands) // no sampling applies: the selection is the identity
		return
	}
	if s.selColl == nil {
		s.selColl = topk.New(cfg.KLocal)
	}
	s.selColl.Reset()
	for _, c := range cands {
		rank := c.Sim
		switch cfg.Policy {
		case SelectMin:
			rank = -c.Sim // bottom-k as top-k (the trick of topk.Bottom)
		case SelectRnd:
			rank = randx.Float64(cfg.Seed^rndSelSalt, uint64(u), uint64(c.V))
		}
		s.selColl.Push(uint32(c.V), rank)
	}
	s.items = s.selColl.AppendResult(s.items[:0])
	chosen := s.chosen[:0]
	for _, it := range s.items {
		chosen = append(chosen, graph.VertexID(it.ID))
	}
	s.chosen = chosen
	slices.Sort(chosen)
	// Filter cands (V-ascending) against chosen (ascending) with one merge:
	// the output stays sorted by vertex ID.
	k, j := 0, 0
	for _, c := range cands {
		for j < len(chosen) && chosen[j] < c.V {
			j++
		}
		if j < len(chosen) && chosen[j] == c.V {
			dst[k] = c
			k++
		}
	}
}

// ---- Step 3 kernels: combine and aggregate path similarities (lines 12-20) ----

// excluded is line 15's exclusion: candidate z of u is dropped when it is u
// itself or in the sorted list excl (Γ̂(u) for the final steps, nil for step
// 3a, which keeps every path but the one back to u).
func excluded(u graph.VertexID, excl []graph.VertexID, z graph.VertexID) bool {
	return z == u || containsVertex(excl, z)
}

// appendRelayPaths is line 15 through one relay v of u: one candidate per
// relay z of v, valued suv ⊗ sim(v,z), unless excluded. relays ascend by V,
// so the appended run ascends by Z.
func appendRelayPaths(comb Combinator, out []PathCand, suv float64, u graph.VertexID, excl []graph.VertexID, relays []VertexSim) []PathCand {
	for _, zs := range relays {
		if !excluded(u, excl, zs.V) {
			out = append(out, PathCand{Z: zs.V, S: comb.Fn(suv, zs.Sim)})
		}
	}
	return out
}

// appendExtendedPaths is appendRelayPaths over v's stored 2-hop list (the
// 3-hop extension, khop.go): each path v→z→w extends to u→v→(z→w), valued
// suv ⊗ sim*(v,w).
func appendExtendedPaths(comb Combinator, out []PathCand, suv float64, u graph.VertexID, excl []graph.VertexID, paths []PathCand) []PathCand {
	for _, pc := range paths {
		if !excluded(u, excl, pc.Z) {
			out = append(out, PathCand{Z: pc.Z, S: comb.Fn(suv, pc.S)})
		}
	}
	return out
}

// appendFoldSorted groups Z-sorted path candidates, folds each group with
// the aggregator and appends the top-k predictions, best first, to dst.
func (s *Scratch) appendFoldSorted(cands []PathCand, cfg *Config, dst []Prediction) []Prediction {
	if s.coll == nil {
		s.coll = topk.New(cfg.K)
	}
	s.coll.Reset()
	vals := s.vals
	for i := 0; i < len(cands); {
		j := i
		for j < len(cands) && cands[j].Z == cands[i].Z {
			j++
		}
		vals = vals[:0]
		for _, pc := range cands[i:j] {
			vals = append(vals, pc.S)
		}
		s.coll.Push(uint32(cands[i].Z), cfg.Score.Agg.FoldPathsInPlace(vals))
		i = j
	}
	s.vals = vals
	s.items = s.coll.AppendResult(s.items[:0])
	for _, it := range s.items {
		dst = append(dst, Prediction{Vertex: graph.VertexID(it.ID), Score: it.Score})
	}
	return dst
}

// ---- Per-edge gathers and per-vertex applies of the GAS schedulers ----
//
// A GAS scheduler builds a step's row for u edge by edge, in whatever order
// its partitions and the network deliver the pieces, then applies: the apply
// canonicalises the row (sorts it) and keeps exactly what StepRunner's fill
// writes for u. An empty row applies to nil.

// appendCombine is step 3's gather for the edge (u, v): the candidates
// through v, ascending by Z, or nothing when v is not one of u's relays
// (line 13).
func appendCombine(comb Combinator, out []PathCand, u, v graph.VertexID, uD, vD *VData) []PathCand {
	suv, ok := lookupSim(uD.Sims, v)
	if !ok {
		return out
	}
	out = slices.Grow(out, len(vD.Sims))
	return appendRelayPaths(comb, out, suv, u, uD.Nbrs, vD.Sims)
}

// appendTwoHop is step 3a's gather for the edge (u, v): u's 2-hop paths
// through the relay v, ascending by Z.
func appendTwoHop(comb Combinator, out []PathCand, u, v graph.VertexID, uD, vD *VData) []PathCand {
	suv, ok := lookupSim(uD.Sims, v)
	if !ok {
		return out
	}
	out = slices.Grow(out, len(vD.Sims))
	return appendRelayPaths(comb, out, suv, u, nil, vD.Sims)
}

// appendCombine3 is step 3b's gather for the edge (u, v): step 3's
// candidates through the relay v, then v's stored 2-hop list extended by the
// edge. The two halves are each ascending by Z, the whole is not.
func appendCombine3(comb Combinator, out []PathCand, u, v graph.VertexID, uD, vD *VData) []PathCand {
	suv, ok := lookupSim(uD.Sims, v)
	if !ok {
		return out
	}
	out = slices.Grow(out, len(vD.Sims)+len(vD.TwoHop))
	out = appendRelayPaths(comb, out, suv, u, uD.Nbrs, vD.Sims)
	return appendExtendedPaths(comb, out, suv, u, uD.Nbrs, vD.TwoHop)
}

// applyTruncate is step 1's apply: Γ̂(u) is the gathered sample, sorted.
func applyTruncate(sum []graph.VertexID) []graph.VertexID {
	if len(sum) == 0 {
		return nil
	}
	nbrs := slices.Clone(sum)
	slices.Sort(nbrs)
	return nbrs
}

// applyRelays is step 2's apply: the gathered (v, sim) row, sorted by V in
// place, through the k_local selection.
func (s *Scratch) applyRelays(cfg *Config, u graph.VertexID, sum []VertexSim) []VertexSim {
	if len(sum) == 0 {
		return nil
	}
	slices.SortFunc(sum, func(a, b VertexSim) int { return cmp.Compare(a.V, b.V) })
	out := make([]VertexSim, relayCount(cfg.KLocal, len(sum)))
	s.selectRelays(cfg, u, sum, out)
	return out
}

// applyTwoHop is step 3a's apply: the flat 2-hop path list, sorted by
// candidate.
func applyTwoHop(sum []PathCand) []PathCand {
	if len(sum) == 0 {
		return nil
	}
	paths := slices.Clone(sum)
	sortPathCands(paths)
	return paths
}

// applyCombine is the final step's apply (3 or 3b): the gathered candidates,
// sorted by Z in place, folded per candidate (⊕pre then ⊕post, line 19) into
// the top-k predictions (line 20).
func (s *Scratch) applyCombine(cfg *Config, sum []PathCand) []Prediction {
	if len(sum) == 0 {
		return nil
	}
	sortPathCands(sum)
	return s.appendFoldSorted(sum, cfg, nil)
}

// ---- StepRunner: the per-vertex scheduler over arenas ----

// StepRunner schedules Algorithm 2's kernels per vertex over any adjacency
// View. Construct one with NewStepRunner; methods are safe for concurrent
// use as long as each goroutine uses its own Scratch and writes to disjoint
// vertices.
//
// When the view is a frozen CSR the runner pins it in csr and every row
// access is a direct slice view — the monomorphic fast path the alloc tests
// and perf gate measure. Overlay views (graph.Delta) go through AppendOutRow
// into the Scratch's reused row buffer instead, still allocation-free in
// steady state.
type StepRunner struct {
	g        graph.View
	csr      *graph.Digraph // non-nil fast path: g is (or unwraps to) a CSR
	cfg      Config
	frontier *Frontier // query scope; nil = full run
}

// NewStepRunner validates cfg, fills defaults and — for a query-scoped run
// (cfg.Sources non-empty) — computes the frontier closure that gates every
// step primitive. It builds nothing sized by the graph: out-degrees are read
// from the view as the steps need them.
func NewStepRunner(g graph.View, cfg Config) (*StepRunner, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f, err := NewFrontier(g, cfg)
	if err != nil {
		return nil, err
	}
	r := &StepRunner{g: g, cfg: cfg, frontier: f}
	r.csr, _ = graph.AsCSR(g)
	return r, nil
}

// degree returns u's full out-degree: two offset loads on the CSR fast
// path, the view's O(1) OutDegree otherwise.
func (r *StepRunner) degree(u graph.VertexID) int {
	if r.csr != nil {
		return r.csr.OutDegree(u)
	}
	return r.g.OutDegree(u)
}

// outRow returns u's sorted out-neighbour row: a direct CSR slice on the
// frozen-graph fast path, the overlay merge into s.row otherwise. The result
// is valid until the next outRow call on the same Scratch.
func (r *StepRunner) outRow(u graph.VertexID, s *Scratch) []graph.VertexID {
	if r.csr != nil {
		return r.csr.OutNeighbors(u)
	}
	s.row = r.g.AppendOutRow(s.row[:0], u)
	return s.row
}

// Config returns the runner's configuration with defaults applied.
func (r *StepRunner) Config() Config { return r.cfg }

// Frontier returns the run's query scope, or nil for a full run. Scoped
// vertex loops iterate the appropriate set's Members instead of [0, n); the
// step primitives below additionally gate themselves, so a loop that visits
// an out-of-scope vertex anyway writes nothing for it.
func (r *StepRunner) Frontier() *Frontier { return r.frontier }

// Scratch holds the reusable buffers of the kernels: one per concurrent
// StepRunner worker (construct with StepRunner.NewScratch) or per
// DistPartition; the zero value is ready for the applies.
type Scratch struct {
	sims    []VertexSim
	cands   []PathCand
	vals    []float64
	items   []topk.Item
	chosen  []graph.VertexID
	row     []graph.VertexID // merged-row buffer for overlay views (outRow)
	coll    *topk.Collector  // top-k predictions (capacity cfg.K)
	selColl *topk.Collector  // k_local relay selection (nil until sampling applies)
}

// NewScratch returns a Scratch sized for the runner's configuration.
func (r *StepRunner) NewScratch() *Scratch {
	s := &Scratch{coll: topk.New(r.cfg.K)}
	if r.cfg.KLocal != Unlimited {
		s.selColl = topk.New(r.cfg.KLocal)
	}
	return s
}

// TruncateCount returns |Γ̂(u)|, the number of out-neighbours the hash-keyed
// truncation keeps for u (the count pass of step 1). s supplies the merged-row
// buffer when the view is an overlay.
func (r *StepRunner) TruncateCount(u graph.VertexID, s *Scratch) int {
	if !r.frontier.InTrunc(u) {
		return 0
	}
	deg := r.degree(u)
	if r.cfg.ThrGamma == Unlimited || deg <= r.cfg.ThrGamma {
		return deg
	}
	n := 0
	for _, v := range r.outRow(u, s) {
		if keepTruncated(r.cfg.Seed, u, v, deg, r.cfg.ThrGamma) {
			n++
		}
	}
	return n
}

// TruncateFill writes Γ̂(u) into dst, which must have length
// TruncateCount(u, s). The result is sorted ascending because it is a
// subsequence of the sorted adjacency. The hash draws repeat the count
// pass's exactly.
func (r *StepRunner) TruncateFill(u graph.VertexID, dst []graph.VertexID, s *Scratch) {
	if !r.frontier.InTrunc(u) {
		return
	}
	nbrs := r.outRow(u, s)
	deg := r.degree(u)
	if r.cfg.ThrGamma == Unlimited || deg <= r.cfg.ThrGamma {
		copy(dst, nbrs)
		return
	}
	k := 0
	for _, v := range nbrs {
		if keepTruncated(r.cfg.Seed, u, v, deg, r.cfg.ThrGamma) {
			dst[k] = v
			k++
		}
	}
}

// RelayCount returns the number of relays step 2 keeps for u (O(1), see
// relayCount).
func (r *StepRunner) RelayCount(u graph.VertexID) int {
	if !r.frontier.InSims(u) {
		return 0
	}
	return relayCount(r.cfg.KLocal, r.degree(u))
}

// RelaysFill runs step 2 for u: raw similarities to every out-neighbour over
// the truncated neighbourhoods of trunc, then the k_local selection policy.
// dst must have length RelayCount(u); the result is sorted by vertex ID.
func (r *StepRunner) RelaysFill(u graph.VertexID, trunc *Arena[graph.VertexID], dst []VertexSim, s *Scratch) {
	if !r.frontier.InSims(u) {
		return
	}
	nbrs := r.outRow(u, s)
	if len(nbrs) == 0 {
		return
	}
	// The candidate row is built from the sorted adjacency, so it is V-sorted.
	cands := s.sims[:0]
	uTrunc, degU, sim := trunc.Row(u), r.degree(u), r.cfg.Score.Sim
	for _, v := range nbrs {
		cands = append(cands, VertexSim{V: v, Sim: sim.Score(uTrunc, trunc.Row(v), degU, r.degree(v))})
	}
	s.sims = cands
	s.selectRelays(&r.cfg, u, cands, dst)
}

// CombineAppend runs step 3 for u: it walks the 2-hop paths u→v→z through
// u's relays, combines the edge similarities with ⊗, aggregates per
// candidate with ⊕ and appends the top-k predictions to dst, returning the
// extended slice (unchanged when u has no candidates). dst is caller-owned
// retained storage; everything transient lives in s.
func (r *StepRunner) CombineAppend(u graph.VertexID, trunc *Arena[graph.VertexID], sims *Arena[VertexSim], s *Scratch, dst []Prediction) []Prediction {
	if !r.frontier.InPred(u) {
		return dst
	}
	cands := s.cands[:0]
	uTrunc := trunc.Row(u)
	for _, vs := range sims.Row(u) {
		cands = appendRelayPaths(r.cfg.Score.Comb, cands, vs.Sim, u, uTrunc, sims.Row(vs.V))
	}
	s.cands = cands
	if len(cands) == 0 {
		return dst
	}
	sortPathCands(cands)
	return s.appendFoldSorted(cands, &r.cfg, dst)
}

// TwoHopCount returns the length of v's sampled 2-hop path list for step 3a
// of the 3-hop extension: Σ_{z ∈ sims(v)} |sims(z) \ {v}|. Relay lists are
// V-sorted, so the self-exclusion is a binary search per relay.
func (r *StepRunner) TwoHopCount(v graph.VertexID, sims *Arena[VertexSim]) int {
	if !r.frontier.InTwoHop(v) {
		return 0
	}
	n := 0
	for _, zs := range sims.Row(v) {
		row := sims.Row(zs.V)
		n += len(row)
		if _, ok := lookupSim(row, v); ok {
			n--
		}
	}
	return n
}

// TwoHopFill writes v's sampled 2-hop path list {(w, sim(v,z) ⊗ sim(z,w)) :
// z ∈ sims(v), w ∈ sims(z), w ≠ v} into dst, which must have length
// TwoHopCount(v). See khop.go for the fold-direction discussion.
func (r *StepRunner) TwoHopFill(v graph.VertexID, sims *Arena[VertexSim], dst []PathCand) {
	if !r.frontier.InTwoHop(v) {
		return
	}
	// Clipped to the row: a miscount reallocates instead of overwriting the
	// next row.
	out := dst[:0:len(dst)]
	for _, zs := range sims.Row(v) {
		out = appendRelayPaths(r.cfg.Score.Comb, out, zs.Sim, v, nil, sims.Row(zs.V))
	}
}

// Combine3Append runs step 3b of the 3-hop extension for u: it aggregates
// u's 2-hop paths together with the 3-hop paths obtained by extending each
// relay's stored 2-hop list by the edge (u,v), appending the top-k
// predictions to dst like CombineAppend.
func (r *StepRunner) Combine3Append(u graph.VertexID, trunc *Arena[graph.VertexID], sims *Arena[VertexSim], twoHop *Arena[PathCand], s *Scratch, dst []Prediction) []Prediction {
	if !r.frontier.InPred(u) {
		return dst
	}
	comb := r.cfg.Score.Comb
	cands := s.cands[:0]
	uTrunc := trunc.Row(u)
	for _, vs := range sims.Row(u) {
		cands = appendRelayPaths(comb, cands, vs.Sim, u, uTrunc, sims.Row(vs.V))
		cands = appendExtendedPaths(comb, cands, vs.Sim, u, uTrunc, twoHop.Row(vs.V))
	}
	s.cands = cands
	if len(cands) == 0 {
		return dst
	}
	sortPathCands(cands)
	return s.appendFoldSorted(cands, &r.cfg, dst)
}

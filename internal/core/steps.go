package core

import (
	"cmp"
	"slices"

	"snaple/internal/graph"
	"snaple/internal/randx"
	"snaple/internal/topk"
)

// This file factors Algorithm 2's three steps into per-vertex primitives so
// that every execution substrate shares one copy of the scoring logic:
//
//   - the serial reference loop (reference.go),
//   - the GAS step programs of the simulated cluster (snaple.go, khop.go),
//   - the parallel shared-memory backend (internal/engine).
//
// The primitives follow the Arena build protocol (arena.go): every step runs
// a cheap count pass (TruncateCount, RelayCount, TwoHopCount) and then a
// fill pass (TruncateFill, RelaysFill, TwoHopFill) into preallocated rows of
// one flat backing array, so the steady-state loop performs zero heap
// allocations per vertex. Final predictions append into caller-owned buffers
// (CombineAppend, Combine3Append) because their sizes are only known after
// aggregation.
//
// All primitives are deterministic in (graph, Config): truncation and the
// Γrnd selection draw from hashes keyed by (seed, u, v), and aggregation
// folds path values in sorted order (Aggregator.FoldPaths), so every
// substrate produces bit-identical Predictions regardless of scheduling.

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

// StepRunner exposes Algorithm 2's steps as per-vertex functions over any
// adjacency View. Construct one with NewStepRunner; methods are safe for
// concurrent use as long as each goroutine uses its own Scratch and writes
// to disjoint vertices.
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

// Scratch holds the per-worker reusable buffers of the step functions. Each
// concurrent worker needs its own; construct with StepRunner.NewScratch.
type Scratch struct {
	sims    []VertexSim
	cands   []PathCand
	vals    []float64
	items   []topk.Item
	chosen  []graph.VertexID
	row     []graph.VertexID // merged-row buffer for overlay views (outRow)
	coll    *topk.Collector  // top-k predictions (capacity cfg.K)
	selColl *topk.Collector  // k_local relay selection (nil when unlimited)
}

// NewScratch returns a Scratch sized for the runner's configuration.
func (r *StepRunner) NewScratch() *Scratch {
	s := &Scratch{coll: topk.New(r.cfg.K)}
	if r.cfg.KLocal != Unlimited {
		s.selColl = topk.New(r.cfg.KLocal)
	}
	return s
}

// ---- Step 1: truncated neighbourhoods Γ̂ (Algorithm 2, lines 1-6) ----

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

// ---- Step 2: similarities and k_local relay selection (lines 7-11) ----

// RelayCount returns the number of relays step 2 keeps for u: every
// out-neighbour, capped at KLocal when the sampling bound is set. This is
// O(1) — the selection policy only decides which relays survive, never how
// many.
func (r *StepRunner) RelayCount(u graph.VertexID) int {
	if !r.frontier.InSims(u) {
		return 0
	}
	deg := r.degree(u)
	if r.cfg.KLocal != Unlimited && deg > r.cfg.KLocal {
		return r.cfg.KLocal
	}
	return deg
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
	cands := s.sims[:0]
	uTrunc, degU := trunc.Row(u), r.degree(u)
	for _, v := range nbrs {
		sim := simScore(r.cfg.Score.Sim, u, v, uTrunc, trunc.Row(v), degU, r.degree(v))
		cands = append(cands, VertexSim{V: v, Sim: sim})
	}
	s.sims = cands
	// cands is sorted by V (built from the sorted adjacency), so when no
	// sampling applies the selection is the identity.
	if r.cfg.KLocal == Unlimited || len(cands) <= r.cfg.KLocal {
		copy(dst, cands)
		return
	}
	// Rank candidates under the policy with the scratch collector; the
	// retained set matches selectRelays (snaple.go) exactly — the collector's
	// total order is strict, so the chosen set is independent of push order.
	s.selColl.Reset()
	switch r.cfg.Policy {
	case SelectMax:
		for _, c := range cands {
			s.selColl.Push(uint32(c.V), c.Sim)
		}
	case SelectMin:
		// Negated scores turn bottom-k into top-k (same trick as topk.Bottom).
		for _, c := range cands {
			s.selColl.Push(uint32(c.V), -c.Sim)
		}
	case SelectRnd:
		for _, c := range cands {
			s.selColl.Push(uint32(c.V), randx.Float64(r.cfg.Seed^rndSelSalt, uint64(u), uint64(c.V)))
		}
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

// ---- Step 3: combine and aggregate path similarities (lines 12-20) ----

// CombineAppend runs step 3 for u: it walks the 2-hop paths u→v→z through
// u's relays, combines the edge similarities with ⊗, aggregates per
// candidate with ⊕ and appends the top-k predictions to dst, returning the
// extended slice (unchanged when u has no candidates). dst is caller-owned
// retained storage; everything transient lives in s.
func (r *StepRunner) CombineAppend(u graph.VertexID, trunc *Arena[graph.VertexID], sims *Arena[VertexSim], s *Scratch, dst []Prediction) []Prediction {
	if !r.frontier.InPred(u) {
		return dst
	}
	comb := r.cfg.Score.Comb.Fn
	cands := s.cands[:0]
	uTrunc := trunc.Row(u)
	for _, vs := range sims.Row(u) {
		for _, zs := range sims.Row(vs.V) {
			z := zs.V
			if z == u || containsVertex(uTrunc, z) {
				continue // z ∈ Γ̂(u) ∪ {u} (line 15's exclusion)
			}
			cands = append(cands, PathCand{Z: z, S: comb(vs.Sim, zs.Sim)})
		}
	}
	s.cands = cands
	if len(cands) == 0 {
		return dst
	}
	sortPathCands(cands)
	return s.appendFoldSorted(cands, r.cfg.Score.Agg, dst)
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
	comb := r.cfg.Score.Comb.Fn
	k := 0
	for _, zs := range sims.Row(v) {
		for _, ws := range sims.Row(zs.V) {
			if ws.V == v {
				continue
			}
			dst[k] = PathCand{Z: ws.V, S: comb(zs.Sim, ws.Sim)}
			k++
		}
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
	comb := r.cfg.Score.Comb.Fn
	cands := s.cands[:0]
	uTrunc := trunc.Row(u)
	for _, vs := range sims.Row(u) {
		for _, zs := range sims.Row(vs.V) {
			if zs.V == u || containsVertex(uTrunc, zs.V) {
				continue
			}
			cands = append(cands, PathCand{Z: zs.V, S: comb(vs.Sim, zs.Sim)})
		}
		for _, pc := range twoHop.Row(vs.V) {
			if pc.Z == u || containsVertex(uTrunc, pc.Z) {
				continue
			}
			cands = append(cands, PathCand{Z: pc.Z, S: comb(vs.Sim, pc.S)})
		}
	}
	s.cands = cands
	if len(cands) == 0 {
		return dst
	}
	sortPathCands(cands)
	return s.appendFoldSorted(cands, r.cfg.Score.Agg, dst)
}

// appendFoldSorted groups Z-sorted path candidates, folds each group with
// the aggregator and appends the top-k predictions, best first, to dst.
func (s *Scratch) appendFoldSorted(cands []PathCand, agg Aggregator, dst []Prediction) []Prediction {
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
		s.coll.Push(uint32(cands[i].Z), agg.FoldPathsInPlace(vals))
		i = j
	}
	s.vals = vals
	s.items = s.coll.AppendResult(s.items[:0])
	for _, it := range s.items {
		dst = append(dst, Prediction{Vertex: graph.VertexID(it.ID), Score: it.Score})
	}
	return dst
}

// foldSortedPathCands is the allocation-per-call variant of appendFoldSorted
// used by the GAS Apply phases, which have no per-worker scratch.
func foldSortedPathCands(cands []PathCand, agg Aggregator, k int) []Prediction {
	if len(cands) == 0 {
		return nil
	}
	s := Scratch{coll: topk.New(k)}
	return s.appendFoldSorted(cands, agg, nil)
}

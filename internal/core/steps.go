package core

import (
	"cmp"
	"slices"

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
//   - step 3: pathMerge, the one merge of Z-ascending runs (line 15's
//     exclusion as a forward cursor over Γ̂(u), ⊗ per kept path), drained by
//     Scratch.appendTopK (⊕ via foldGroup, then top-k); appendRelayPaths is
//     line 15 through one relay, for the per-edge gather;
//   - the per-edge gather appendCombine and the per-vertex applies
//     applyTruncate / applyRelays / applyCombine, which a GAS substrate
//     calls around the exchange.
//
// SNAPLE scores 2-hop paths only: the paper's footnote 2 mentions longer
// paths, and its evaluation, like every kernel here, stops at two hops.
//
// Step 3 never comparison-sorts its candidates. Every input it sees is
// already a concatenation of Z-ascending runs: the relay rows of u's relays
// (V-sorted by construction) and a GAS sum (the gathers' ascending runs in
// arrival order). pathMerge splits its input at each descent and merges the
// runs pairwise, so a candidate's paths meet in one group. Line 15 is then a
// cursor over the sorted Γ̂(u) that only moves forward as Z rises, and an
// excluded group costs no ⊗.
//
// Every substrate is a scheduler of these kernels and owns no step logic:
//
//   - StepRunner (below) runs them per vertex over arenas, for the parallel
//     shared-memory backend (internal/engine), the serial references
//     (reference.go) and the supervised features (supervised.go);
//   - DistPartition (diststep.go) runs the gathers per edge over a shard's
//     source runs and the applies per master, for the wire worker and, in
//     process, for the simulated cluster.
//
// StepRunner follows the Arena build protocol (arena.go): every step runs a
// cheap count pass (TruncateCount, RelayCount) and then a fill pass
// (TruncateFill, RelaysFill) into preallocated rows of one flat backing
// array, so the steady-state loop performs zero heap allocations per vertex.
// Final predictions append into a caller-owned buffer (CombineAppend)
// because their sizes are only known after aggregation.
//
// All kernels are deterministic in (graph, Config): truncation and the Γrnd
// selection draw from hashes keyed by (seed, u, v), selection breaks ties by
// id, and aggregation folds path values in sorted order
// (Aggregator.FoldPaths; foldGroup orders groups of one or two values with
// the sort's own comparison instead of calling it), so every scheduler
// produces bit-identical Predictions however it orders the work — and the
// merge may hand a group's values over in any order.

// PathCand is one path's contribution to candidate Z: the combined
// path-similarity of equation (8). Lists are built as Z-ascending runs, so
// the step-3 merge (pathMerge) groups them without a comparison sort.
type PathCand struct {
	Z graph.VertexID
	S float64
}

// lookupSim binary-searches a V-sorted similarity list.
func lookupSim(sims []VertexSim, v graph.VertexID) (float64, bool) {
	i, ok := slices.BinarySearchFunc(sims, v, func(s VertexSim, v graph.VertexID) int { return cmp.Compare(s.V, v) })
	if !ok {
		return 0, false
	}
	return sims[i].Sim, true
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

// exclusion is line 15's Γ̂(u) ∪ {u}, asked about candidates in ascending
// order: a forward cursor over the sorted excl (Γ̂(u); nil for step 3's
// apply, whose gathered input line 15 already filtered), so a whole run
// costs one pass over excl instead of a binary search per candidate.
type exclusion struct {
	u    graph.VertexID
	excl []graph.VertexID
	i    int // excl[:i] is below every candidate asked about so far
}

// has reports whether candidate z is excluded. z must not be below the
// previous query's.
func (x *exclusion) has(z graph.VertexID) bool {
	for x.i < len(x.excl) && x.excl[x.i] < z {
		x.i++
	}
	return z == x.u || (x.i < len(x.excl) && x.excl[x.i] == z)
}

// appendRelayPaths is line 15 through one relay v of u, for a per-edge
// gather: one candidate per relay z of v, valued suv ⊗ sim(v,z), unless
// excluded. relays ascend by V, so the appended run ascends by Z.
func appendRelayPaths(comb Combinator, out []PathCand, suv float64, u graph.VertexID, excl []graph.VertexID, relays []VertexSim) []PathCand {
	x := exclusion{u: u, excl: excl}
	for _, zs := range relays {
		if !x.has(zs.V) {
			out = append(out, PathCand{Z: zs.V, S: comb.Fn(suv, zs.Sim)})
		}
	}
	return out
}

// pathEntry is one path in the merge: candidate z, reached through input
// src, valued suv[src] ⊗ x — or x itself when the merge has no ⊗.
type pathEntry struct {
	z   graph.VertexID
	src int32
	x   float64
}

// pathMerge is step 3's one merge kernel (lines 15-19). Its input is a
// concatenation of Z-ascending runs — relay rows or gathered sums — which it
// splits at every descent and merges pairwise, ping-ponging between two
// buffers, into one Z-ascending list; then it yields that list one Z-group
// at a time. Line 15's exclusion is a forward
// cursor advanced as Z rises, and an excluded group is dropped without
// evaluating its ⊗. It lives in Scratch, so its buffers are reused across
// vertices.
type pathMerge struct {
	ents, tmp []pathEntry                // the input, then the merged list; tmp is the other buffer
	bounds    []int                      // the runs' bounds in ents, while merging
	suv       []float64                  // per input: s(u,v) of its relay v
	comb      func(a, b float64) float64 // ⊗; nil takes each x as it is
	x         exclusion
	pos       int       // ents[pos:] is not yet yielded
	vals      []float64 // the current group's path values
}

// reset empties the merge for candidate vertex u, with ⊗ = comb (nil for
// inputs already combined) and exclusion list excl.
func (m *pathMerge) reset(comb func(a, b float64) float64, u graph.VertexID, excl []graph.VertexID) {
	m.ents, m.suv, m.pos = m.ents[:0], m.suv[:0], 0
	m.comb = comb
	m.x = exclusion{u: u, excl: excl}
}

// addRelays adds the V-sorted relay row rel of a relay v with s(u,v) = suv.
func (m *pathMerge) addRelays(suv float64, rel []VertexSim) {
	src := int32(len(m.suv))
	m.suv = append(m.suv, suv)
	for _, zs := range rel {
		m.ents = append(m.ents, pathEntry{z: zs.V, src: src, x: zs.Sim})
	}
}

// addPaths adds an already-combined path list — any concatenation of
// Z-ascending runs — to a merge reset with no ⊗: each entry contributes S.
func (m *pathMerge) addPaths(paths []PathCand) {
	for _, pc := range paths {
		m.ents = append(m.ents, pathEntry{z: pc.Z, x: pc.S})
	}
}

// merge splits the input at every descent and merges the runs pairwise,
// pass after pass, into one Z-ascending list, ready for next.
func (m *pathMerge) merge() {
	b := append(m.bounds[:0], 0)
	for i := 1; i < len(m.ents); i++ {
		if m.ents[i].z < m.ents[i-1].z {
			b = append(b, i)
		}
	}
	b = append(b, len(m.ents))
	m.bounds = b
	if len(b) <= 2 {
		return // one run, or none
	}
	src, dst := m.ents, slices.Grow(m.tmp[:0], len(m.ents))[:len(m.ents)]
	for len(b) > 2 {
		k := 1
		for i := 0; i+1 < len(b); i += 2 {
			lo, mid, hi := b[i], b[i+1], b[i+1]
			if i+2 < len(b) {
				hi = b[i+2]
			}
			mergePair(dst[lo:hi], src[lo:mid], src[mid:hi])
			b[k] = hi
			k++
		}
		b = b[:k]
		src, dst = dst, src
	}
	m.ents, m.tmp = src, dst
}

// mergePair merges the Z-ascending runs a and b into dst, which must have
// room for both.
func mergePair(dst, a, b []pathEntry) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		// Branch-free: which run supplies dst[k] is a coin flip on
		// interleaved ids, so a branch would mispredict half the time.
		pair := [2]pathEntry{a[i], b[j]}
		t := int((uint64(pair[1].z) - uint64(pair[0].z)) >> 63) // 1 when b's head is lower
		dst[k] = pair[t]
		i += 1 - t
		j += t
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// next returns the next Z-group that line 15 keeps: its candidate and its
// path values in no particular order (foldGroup sorts them), valid until
// the next call; false once the list is exhausted.
func (m *pathMerge) next() (graph.VertexID, []float64, bool) {
	ents := m.ents
	for m.pos < len(ents) {
		i, z := m.pos, ents[m.pos].z
		j := i + 1
		for j < len(ents) && ents[j].z == z {
			j++
		}
		m.pos = j
		if m.x.has(z) {
			continue
		}
		vals := m.vals[:0]
		for _, e := range ents[i:j] {
			v := e.x
			if m.comb != nil {
				v = m.comb(m.suv[e.src], v)
			}
			vals = append(vals, v)
		}
		if cap(vals) != cap(m.vals) {
			m.vals = vals // grown: keep the larger buffer
		}
		return z, vals, true
	}
	return 0, nil, false
}

// foldGroup is line 19 for one candidate: Aggregator.FoldPathsInPlace,
// whose sort-before-fold rule keeps results independent of the order paths
// arrive in. Groups of one or two values skip the sort but fold in the same
// ascending order, compared as sort.Float64s compares.
func foldGroup(agg Aggregator, vals []float64) float64 {
	switch len(vals) {
	case 1:
		return agg.Post(vals[0], 1)
	case 2:
		lo, hi := vals[0], vals[1]
		if cmp.Less(hi, lo) {
			lo, hi = hi, lo
		}
		return agg.Post(agg.Pre(lo, hi), 2)
	}
	return agg.FoldPathsInPlace(vals)
}

// appendTopK drains the merge, folding each group (line 19), and appends
// the top-k predictions (line 20), best first, to dst.
func (s *Scratch) appendTopK(cfg *Config, dst []Prediction) []Prediction {
	if s.coll == nil {
		s.coll = topk.New(cfg.K)
	}
	s.coll.Reset()
	m := &s.merge
	m.merge()
	for z, vals, ok := m.next(); ok; z, vals, ok = m.next() {
		s.coll.Push(uint32(z), foldGroup(cfg.Score.Agg, vals))
	}
	s.items = s.coll.AppendResult(s.items[:0])
	return appendItems(dst, s.items)
}

// appendItems appends a top-k result to dst as predictions, best first: nil
// stays nil when there are none.
func appendItems(dst []Prediction, items []topk.Item) []Prediction {
	dst = slices.Grow(dst, len(items))
	for _, it := range items {
		dst = append(dst, Prediction{Vertex: graph.VertexID(it.ID), Score: it.Score})
	}
	return dst
}

// ---- Per-edge gathers and per-vertex applies of the GAS schedulers ----
//
// A GAS scheduler builds a step's row for u edge by edge, in whatever order
// its partitions and the network deliver the pieces, then applies: the apply
// canonicalises the row (sorts or merges it) and keeps exactly what
// StepRunner's fill writes for u. An empty row applies to nil.

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

// applyCombine is step 3's apply: u's gathered sum — Z-ascending runs
// concatenated in whatever order they arrived, which the merge splits at
// each descent — merged, folded per candidate (⊕pre then ⊕post, line 19) and
// reduced to the top-k predictions (line 20), appended to dst. The gathers
// applied line 15 already, so the merge's exclusion (u itself, no Γ̂(u))
// drops nothing. sum is read, not modified.
func (s *Scratch) applyCombine(cfg *Config, u graph.VertexID, sum []PathCand, dst []Prediction) []Prediction {
	if len(sum) == 0 {
		return dst
	}
	s.merge.reset(nil, u, nil)
	s.merge.addPaths(sum)
	return s.appendTopK(cfg, dst)
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
	merge   pathMerge
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
	m := &s.merge
	m.reset(r.cfg.Score.Comb.Fn, u, trunc.Row(u))
	for _, vs := range sims.Row(u) {
		m.addRelays(vs.Sim, sims.Row(vs.V))
	}
	return s.appendTopK(&r.cfg, dst)
}

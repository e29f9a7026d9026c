package core

import (
	"cmp"
	"math/bits"
	"slices"

	"snaple/internal/graph"
	"snaple/internal/randx"
	"snaple/internal/topk"
)

// This file is the one home of Algorithm 2's per-step logic. The logic is a
// set of kernels over rows — sorted id lists, V-sorted relay rows, candidate
// lists — that take degrees as integers and never touch a graph:
//
//   - step 1: keepTruncated (the hash-keyed Γ̂ draw);
//   - step 2: Similarity.Score, relayCount and Scratch.selectRelays (the
//     k_local policy);
//   - step 3: pathTable, the one grouping kernel (line 15's exclusion as
//     marks in the table, ⊗ per kept path), drained by Scratch.appendTopK
//     (⊕ via foldGroup, then top-k); appendRelayPaths is line 15 through one
//     relay, for the per-edge gather;
//   - the per-edge gather appendCombine and the per-vertex applies
//     applyTruncate / applyRelays / applyCombine, which a GAS substrate
//     calls around the exchange.
//
// SNAPLE scores 2-hop paths only: the paper's footnote 2 mentions longer
// paths, and its evaluation, like every kernel here, stops at two hops.
//
// Step 3 never sorts its candidates: set operations run on sorted rows, but
// aggregation groups in a hash table, as SNAP does. pathTable is keyed by
// candidate Z, so a candidate's paths meet in one group whatever order they
// come in: the relay rows of u's relays, or a GAS sum in arrival order.
// Γ̂(u) ∪ {u} is marked in the table first, so an excluded path costs one
// probe and no ⊗. The drain folds groups in first-seen order, and the top-k
// order (score descending, then id ascending) is total on every score the
// built-ins produce, so the order never shows in a result.
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
// table may hand a group's values over in any order.

// PathCand is one path's contribution to candidate Z: the combined
// path-similarity of equation (8), as a per-edge gather emits it for step
// 3's grouping kernel (pathTable).
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

// appendRelayPaths is line 15 through one relay v of u, for a per-edge
// gather: one candidate per relay z of v, valued suv ⊗ sim(v,z), unless z is
// u or in the sorted excl (Γ̂(u)). relays ascend by V, so the appended run
// ascends by Z and excl is a cursor that only moves forward: one pass over
// it instead of a binary search per candidate.
func appendRelayPaths(comb Combinator, out []PathCand, suv float64, u graph.VertexID, excl []graph.VertexID, relays []VertexSim) []PathCand {
	i := 0 // excl[:i] is below every candidate so far
	for _, zs := range relays {
		for i < len(excl) && excl[i] < zs.V {
			i++
		}
		if zs.V != u && (i == len(excl) || excl[i] != zs.V) {
			out = append(out, PathCand{Z: zs.V, S: comb.Fn(suv, zs.Sim)})
		}
	}
	return out
}

// pathTable is step 3's one grouping kernel (lines 15-19): an
// open-addressing hash table keyed by candidate z that gathers each kept
// candidate's path values into one group. Line 15's Γ̂(u) ∪ {u} is marked in
// the table before any path goes in, so an excluded path costs one probe
// and no ⊗. A group keeps its first two values inline and chains the rest.
// It lives in Scratch, so its buffers are reused across vertices.
type pathTable struct {
	slots  []pathSlot    // a power of two long, at most half full
	shift  uint          // 64 - log2(len(slots)): the hash's top bits index slots
	groups []pathGroup   // the kept candidates, in first-seen order
	more   []chainedPath // every group's third and later values
	vals   []float64     // a long group's values, gathered for foldGroup
}

// pathSlot is one slot of the table: empty (g == 0), line 15's mark on an
// excluded z (g < 0), or z's group, groups[g-1].
type pathSlot struct {
	z graph.VertexID
	g int32
}

// pathGroup is one kept candidate z and its n path values: v holds the
// first two, more[more-1] heads the chain of the rest (0: none).
type pathGroup struct {
	v    [2]float64
	z    graph.VertexID
	n    int32
	more int32
}

// chainedPath is one link of a group's chain; next is 1-based like
// pathGroup.more.
type chainedPath struct {
	v    float64
	next int32
}

// reset empties the table for candidate vertex u, sized for at most paths
// paths, and marks u and the sorted excl (Γ̂(u), or nil) excluded.
func (t *pathTable) reset(u graph.VertexID, excl []graph.VertexID, paths int) {
	b := max(bits.Len(uint(2*(paths+len(excl)+1)-1)), 3) // at least twice the keys
	if n := 1 << b; cap(t.slots) < n {
		t.slots = make([]pathSlot, n)
	} else {
		t.slots = t.slots[:n]
		clear(t.slots)
	}
	t.shift = uint(64 - b)
	t.groups, t.more = slices.Grow(t.groups[:0], paths), t.more[:0]
	t.slot(u).g = -1
	for _, z := range excl {
		t.slot(z).g = -1
	}
}

// slot returns z's slot, claiming an empty one for a z not yet in the
// table: a Fibonacci hash, then linear probing.
func (t *pathTable) slot(z graph.VertexID) *pathSlot {
	mask := len(t.slots) - 1
	for i := int(uint64(z) * 0x9E3779B97F4A7C15 >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.g == 0 {
			s.z = z
			return s
		}
		if s.z == z {
			return s
		}
	}
}

// add records path value x in the group of s, a slot that slot returned
// and that is not excluded, opening the group when s is new.
func (t *pathTable) add(s *pathSlot, x float64) {
	if s.g == 0 {
		n := len(t.groups)
		t.groups = t.groups[:n+1]
		g := &t.groups[n]
		g.v[0], g.z, g.n, g.more = x, s.z, 1, 0
		s.g = int32(n + 1)
		return
	}
	g := &t.groups[s.g-1]
	if g.n == 1 {
		g.v[1] = x
	} else {
		t.more = append(t.more, chainedPath{v: x, next: g.more})
		g.more = int32(len(t.more))
	}
	g.n++
}

// addRelays adds the paths through a relay v with s(u,v) = suv, whose relay
// row is rel: each kept path is valued suv ⊗ sim(v,z).
func (t *pathTable) addRelays(comb *Combinator, suv float64, rel []VertexSim) {
	for _, zs := range rel {
		if s := t.slot(zs.V); s.g >= 0 {
			t.add(s, comb.Fn(suv, zs.Sim))
		}
	}
}

// addPaths adds already-combined paths, in any order: each kept one
// contributes S.
func (t *pathTable) addPaths(paths []PathCand) {
	for _, pc := range paths {
		if s := t.slot(pc.Z); s.g >= 0 {
			t.add(s, pc.S)
		}
	}
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

// appendTopK drains the table, folding each group (line 19), and appends
// the top-k predictions (line 20), best first, to dst. Groups reach the
// collector in first-seen order, which its order (score descending, then id
// ascending) makes irrelevant.
func (s *Scratch) appendTopK(cfg *Config, dst []Prediction) []Prediction {
	if s.coll == nil {
		s.coll = topk.New(cfg.K)
	}
	s.coll.Reset()
	t := &s.paths
	for i := range t.groups {
		g := &t.groups[i]
		vals := g.v[:min(g.n, 2)]
		if g.n > 2 {
			vals = append(t.vals[:0], g.v[0], g.v[1])
			for c := g.more; c != 0; c = t.more[c-1].next {
				vals = append(vals, t.more[c-1].v)
			}
			t.vals = vals
		}
		s.coll.Push(uint32(g.z), foldGroup(cfg.Score.Agg, vals))
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
// The sample arrives as ascending runs — a shard gathers a source's edges in
// destination order, and a sum concatenates whole partials — so it is sorted
// by merging its maximal ascending runs pairwise, one pass per halving of the
// run count: one shard's partial is a copy, two shards' one merge. Any order
// sorts (a descending input is runs of one), only slower. sum is read, not
// modified.
func (s *Scratch) applyTruncate(sum []graph.VertexID) []graph.VertexID {
	if len(sum) == 0 {
		return nil
	}
	runs := append(s.runs[:0], 0)
	for i := 1; i < len(sum); i++ {
		if sum[i] < sum[i-1] {
			runs = append(runs, i)
		}
	}
	runs = append(runs, len(sum))
	// The passes alternate between nbrs and the scratch buffer, so that the
	// last one writes nbrs.
	nbrs := make([]graph.VertexID, len(sum))
	passes := bits.Len(uint(len(runs) - 2))
	if passes == 0 {
		copy(nbrs, sum)
	}
	src := sum
	for p := passes; p > 0; p-- {
		dst := nbrs
		if p%2 == 0 {
			s.merged = slices.Grow(s.merged[:0], len(sum))[:len(sum)]
			dst = s.merged
		}
		runs = mergeRuns(dst, src, runs)
		src = dst
	}
	s.runs = runs
	return nbrs
}

// mergeRuns merges the ascending runs of src that bounds delimits (run i is
// src[bounds[i]:bounds[i+1]]) pairwise into dst, and returns the bounds of
// the merged runs in bounds' own storage.
func mergeRuns(dst, src []graph.VertexID, bounds []int) []int {
	out := bounds[:1]
	for i := 0; i+1 < len(bounds); i += 2 {
		lo, mid, hi := bounds[i], bounds[i+1], bounds[i+1]
		if i+2 < len(bounds) {
			hi = bounds[i+2]
		}
		a, b, d := src[lo:mid], src[mid:hi], dst[lo:hi]
		j, k, n := 0, 0, 0
		for j < len(a) && k < len(b) {
			// Branch-free: which run the next id comes from is a coin flip
			// on interleaved shards' runs.
			x, y := a[j], b[k]
			d[n] = min(x, y)
			n++
			fromB := 0
			if y < x {
				fromB = 1
			}
			j, k = j+1-fromB, k+fromB
		}
		n += copy(d[n:], a[j:])
		copy(d[n:], b[k:])
		out = append(out, hi)
	}
	return out
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

// applyCombine is step 3's apply: u's gathered sum, in whatever order it
// arrived, grouped, folded per candidate (⊕pre then ⊕post, line 19) and
// reduced to the top-k predictions (line 20), appended to dst. The gathers
// applied line 15 already, so the table's exclusion (u itself, no Γ̂(u))
// drops nothing. sum is read, not modified.
func (s *Scratch) applyCombine(cfg *Config, u graph.VertexID, sum []PathCand, dst []Prediction) []Prediction {
	if len(sum) == 0 {
		return dst
	}
	s.paths.reset(u, nil, len(sum))
	s.paths.addPaths(sum)
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
	paths   pathTable
	items   []topk.Item
	chosen  []graph.VertexID
	row     []graph.VertexID // merged-row buffer for overlay views (outRow)
	runs    []int            // step 1's apply: the sample's run bounds
	merged  []graph.VertexID // step 1's apply: the merge passes' other buffer
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
	relays, n := sims.Row(u), 0
	for _, vs := range relays {
		n += len(sims.Row(vs.V))
	}
	if n == 0 {
		return dst
	}
	t := &s.paths
	t.reset(u, trunc.Row(u), n)
	for _, vs := range relays {
		t.addRelays(&r.cfg.Score.Comb, vs.Sim, sims.Row(vs.V))
	}
	return s.appendTopK(&r.cfg, dst)
}

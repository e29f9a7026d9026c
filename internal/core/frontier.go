package core

import (
	"fmt"
	mathbits "math/bits"
	"slices"

	"snaple/internal/graph"
)

// Query-scoped prediction.
//
// A full Algorithm 2 run computes predictions for every vertex of the graph
// — the right shape for offline batch scoring, and the only shape this
// repository had before the serving refactor. But SNAPLE's product scenario
// is answering "top-k for *these* users" interactively, and a billion-edge
// graph cannot afford a full pass per query. Config.Sources scopes a run to
// a source frontier: only the sources receive predictions, and only the
// exact ≤2-hop closure their step programs read is computed.
//
// The closure is derived from the data dependencies of steps.go's
// primitives, which every backend shares:
//
//	Pred  = S               (step 3 output: the sources themselves)
//	Sims  = S ∪ Γ(S)        (step 2 rows read by step 3)
//	Trunc = Sims ∪ Γ(Sims)  (step 1 rows read by step 2's similarities)
//
// where Γ is the out-neighbourhood. Because every step primitive is a pure
// deterministic function of its input rows (hash-keyed draws, sorted folds
// — see steps.go), computing exactly these rows yields predictions for S
// that are bit-identical to a full run filtered to S, on every backend.

// VertexSet is a vertex set over a graph's fixed vertex range, always held
// as the sorted member list the scoped vertex loops iterate. A small set is
// only that list, with membership by binary search, so building and keeping
// it costs O(members); a set that outgrew 1/bitmapShare of the range while
// it was built also carries a bitmap over the whole range for O(1)
// membership. Immutable after construction.
type VertexSet struct {
	bits    []uint64 // nil while the set is a plain list
	members []graph.VertexID
}

// Two measured constants decide when a query-scoped run stops being
// closure-sized, one per structure, each compared against the vertex range
// |V|. Both were measured on the bench graph (200k vertices, 2M edges, 2
// cores) and are constants, not options: the crossovers are properties of
// the data structures, not of a deployment.
const (
	// bitmapShare: a set under construction switches from an appended id
	// list to a bitmap once the list — repeats included, it is what would
	// have to be sorted — holds more than |V|/bitmapShare ids. A |V|-bit
	// bitmap is cheap (|V|/8 bytes, one scan to list its members) next to a
	// sort: NewFrontier takes 11 us by list against 24 us by bitmap for a
	// 170-vertex closure, the two are level at ~450 vertices (28 us), and
	// by 2,200 the list takes 2x as long (150 us against 70); the reverse
	// walk of DirtySources, ~2,900 vertices a batch, takes 300 us by list
	// against 130 us by bitmap.
	bitmapShare = 512
	// denseShare: a step whose scope holds more than |V|/denseShare vertices
	// builds its rows in an identity-indexed arena (three |V|-long offset
	// tables a run), below that in a rank-indexed one (a binary search per
	// row access); see NewStepArena for the measurement.
	denseShare = 32
)

// newBits returns an empty bitmap over [0, n).
func newBits(n int) []uint64 { return make([]uint64, (n+63)/64) }

func bitsContain(bits []uint64, v graph.VertexID) bool {
	return bits[v>>6]&(1<<(v&63)) != 0
}

// bitsAdd sets v's bit and reports whether it was newly set.
func bitsAdd(bits []uint64, v graph.VertexID) bool {
	w, m := v>>6, uint64(1)<<(v&63)
	if bits[w]&m != 0 {
		return false
	}
	bits[w] |= m
	return true
}

// setBuilder accumulates a VertexSet over [0, n): ids are appended as they
// come and sorted and deduplicated once at finish, unless the list outgrows
// n/bitmapShare first, when the builder promotes itself to a bitmap.
type setBuilder struct {
	n    int
	list []graph.VertexID // while a list: unsorted, may repeat
	bits []uint64         // once promoted
	size int              // once promoted: bits set
}

// ensureBitmap reports whether the builder holds a bitmap once k more ids
// are in, promoting a list that they would take past n/bitmapShare.
func (b *setBuilder) ensureBitmap(k int) bool {
	if b.bits == nil && len(b.list)+k > b.n/bitmapShare {
		b.bits = newBits(b.n)
		list := b.list
		b.list = nil
		b.add(list)
	}
	return b.bits != nil
}

// add inserts vs, which the builder never retains.
func (b *setBuilder) add(vs []graph.VertexID) {
	if !b.ensureBitmap(len(vs)) {
		b.list = append(b.list, vs...)
		return
	}
	for _, v := range vs {
		if bitsAdd(b.bits, v) {
			b.size++
		}
	}
}

// addFresh inserts vs and returns, in vs's own storage, the part of it that
// may be new to the set: exactly the new members once the builder holds a
// bitmap, all of vs — sorted and deduplicated — while it is a list (which
// cannot tell without the sort it defers to finish). Breadth-first walks
// expand only what it returns.
func (b *setBuilder) addFresh(vs []graph.VertexID) []graph.VertexID {
	if !b.ensureBitmap(len(vs)) {
		slices.Sort(vs)
		vs = slices.Compact(vs)
		b.list = append(b.list, vs...)
		return vs
	}
	fresh := vs[:0]
	for _, v := range vs {
		if bitsAdd(b.bits, v) {
			b.size++
			fresh = append(fresh, v)
		}
	}
	return fresh
}

// finish freezes the builder into a VertexSet. A dense set materialises its
// member list with one scan (ascending because the scan walks words and
// bits in order).
func (b *setBuilder) finish() *VertexSet {
	if b.bits == nil {
		slices.Sort(b.list)
		return &VertexSet{members: slices.Compact(b.list)}
	}
	members := make([]graph.VertexID, 0, b.size)
	for w, word := range b.bits {
		for word != 0 {
			members = append(members, graph.VertexID(w<<6+mathbits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return &VertexSet{bits: b.bits, members: members}
}

// Contains reports membership. v must lie in the universe the set was built
// over (the graph's vertex range).
func (s *VertexSet) Contains(v graph.VertexID) bool {
	if s.bits != nil {
		return bitsContain(s.bits, v)
	}
	_, ok := slices.BinarySearch(s.members, v)
	return ok
}

// HasBitmap reports whether the set was promoted to a bitmap while it was
// built (see bitmapShare).
func (s *VertexSet) HasBitmap() bool { return s.bits != nil }

// Len returns the member count.
func (s *VertexSet) Len() int { return len(s.members) }

// Members returns the sorted member list. The slice is owned by the set and
// must not be modified.
func (s *VertexSet) Members() []graph.VertexID { return s.members }

// Frontier is the per-step vertex scope of a query-scoped run: which
// vertices each of Algorithm 2's steps must materialise so the sources'
// predictions come out bit-identical to a full run. A nil *Frontier means
// the run is unscoped (full graph); all methods are nil-safe and report
// every vertex as in scope. Fullness is only ever encoded that way — a
// non-nil Frontier's sets may be empty (an isolated source has no relays),
// and an empty set scopes its step to no vertex at all.
type Frontier struct {
	// Pred holds the deduplicated sources: the vertices whose predictions
	// the run computes (step 3 scope).
	Pred *VertexSet
	// Sims is the step-2 scope: vertices whose relay lists some later step
	// reads.
	Sims *VertexSet
	// Trunc is the step-1 scope: vertices whose truncated neighbourhoods
	// step 2's similarities read. It is the full closure (a superset of
	// every other set).
	Trunc *VertexSet
}

// NewFrontier computes the frontier closure of cfg.Sources over g, or nil
// when cfg.Sources is empty (an unscoped full run). It fails when a source
// lies outside the graph's vertex range. The cost is proportional to the
// closure's adjacency, not to the graph (until a set is promoted; see
// bitmapShare).
func NewFrontier(g graph.View, cfg Config) (*Frontier, error) {
	if len(cfg.Sources) == 0 {
		return nil, nil
	}
	n := g.NumVertices()
	for _, v := range cfg.Sources {
		if int(v) >= n {
			return nil, fmt.Errorf("core: source vertex %d outside [0,%d)", v, n)
		}
	}
	pred := setBuilder{n: n}
	pred.add(cfg.Sources)
	f := &Frontier{Pred: pred.finish()}

	// Sims = Pred ∪ Γ(Pred).
	sims := setBuilder{n: n}
	sims.add(f.Pred.members)
	expandOut(g, f.Pred.members, &sims)
	f.Sims = sims.finish()

	// Trunc = Sims ∪ Γ(Sims).
	trunc := setBuilder{n: n}
	trunc.add(f.Sims.members)
	expandOut(g, f.Sims.members, &trunc)
	f.Trunc = trunc.finish()
	return f, nil
}

// expandOut adds the out-neighbours of every vertex in from to b. Frozen
// CSRs hand their rows over directly; overlay views merge each row once
// into a shared buffer.
func expandOut(g graph.View, from []graph.VertexID, b *setBuilder) {
	if csr, ok := graph.AsCSR(g); ok {
		for _, u := range from {
			b.add(csr.OutNeighbors(u))
		}
		return
	}
	var buf []graph.VertexID
	for _, u := range from {
		buf = g.AppendOutRow(buf[:0], u)
		b.add(buf)
	}
}

// NewStepArena returns the arena step's output rows are built in:
// identity-indexed over all n vertices on a full run (f nil), rank-indexed
// over the step's sorted member list on a scoped one — until that list
// holds more than n/denseShare vertices, when the |V|-long offsets table is
// cheaper than a binary search per row access. Measured (scoped Local runs
// through PredictScoped, p50): rank-indexed arenas are 3.7x faster at a
// closure of 0.09% of |V| (1 source), 1.7x at 0.5%, 1.45x at 1.1%, level
// from 2.7% to 5%, then slower: 0.9x at 10%, 0.8x at 17% and 27%.
func NewStepArena[T any](f *Frontier, step DistStep, n int) *Arena[T] {
	if f == nil {
		return NewArena[T](n)
	}
	if set := f.StepSet(step); set.Len() <= n/denseShare {
		return NewRankArena[T](set.Members())
	}
	return NewArena[T](n)
}

// Size returns the closure's vertex count (the largest set), the number the
// engine layer reports as Stats.FrontierVertices. Nil-safe: 0 for an
// unscoped run.
func (f *Frontier) Size() int {
	if f == nil {
		return 0
	}
	return f.Trunc.Len()
}

// InPred reports whether a scoped run computes predictions for v (always
// true unscoped).
func (f *Frontier) InPred(v graph.VertexID) bool { return f == nil || f.Pred.Contains(v) }

// InSims reports whether step 2 must materialise v's relay list.
func (f *Frontier) InSims(v graph.VertexID) bool { return f == nil || f.Sims.Contains(v) }

// InTrunc reports whether step 1 must materialise v's truncated
// neighbourhood.
func (f *Frontier) InTrunc(v graph.VertexID) bool { return f == nil || f.Trunc.Contains(v) }

// Scope-mask bits: the per-vertex frontier membership shipped to dist
// workers (wire.AttachSpec.Masks), one bit per step family. A worker gates
// each superstep's gather on its source's bit, which is all it needs — the
// global sets stay on the coordinator.
const (
	// ScopeTrunc marks gather sources of the truncate superstep.
	ScopeTrunc uint8 = 1 << iota
	// ScopeSims marks gather sources of the relays superstep.
	ScopeSims
	// ScopePred marks gather sources of the final combine superstep.
	ScopePred
)

// ScopeMask returns v's scope bits. Nil-safe: an unscoped run grants every
// step.
func (f *Frontier) ScopeMask(v graph.VertexID) uint8 {
	if f == nil {
		return ScopeTrunc | ScopeSims | ScopePred
	}
	var m uint8
	if f.Trunc.Contains(v) {
		m |= ScopeTrunc
	}
	if f.Sims.Contains(v) {
		m |= ScopeSims
	}
	if f.Pred.Contains(v) {
		m |= ScopePred
	}
	return m
}

// ScopeBit returns the scope-mask bit gating s's gather sources.
func (s DistStep) ScopeBit() uint8 {
	switch s {
	case DistTruncate:
		return ScopeTrunc
	case DistRelays:
		return ScopeSims
	default: // DistCombine
		return ScopePred
	}
}

// StepSet returns the frontier set scoping step's gather sources, or nil
// when there is none: an unscoped run (nil receiver — callers decide
// "every vertex" from the Frontier being nil, never from this result) or a
// step outside Algorithm 2's pipeline.
func (f *Frontier) StepSet(step DistStep) *VertexSet {
	if f == nil {
		return nil
	}
	switch step {
	case DistTruncate:
		return f.Trunc
	case DistRelays:
		return f.Sims
	case DistCombine:
		return f.Pred
	default:
		return nil
	}
}

// StepHasWork reports whether step has any gather source with an out-edge —
// the superstep-skip test: a step whose scope set has no out-edges gathers
// nothing anywhere, and applying nothing writes the same nil state skipping
// leaves behind, so substrates may omit the superstep entirely. Out-degrees
// are read from g, the view the frontier was computed over. Nil-safe: an
// unscoped run always has work.
func (f *Frontier) StepHasWork(step DistStep, g graph.View) bool {
	if f == nil {
		return true
	}
	set := f.StepSet(step)
	if set == nil {
		return false
	}
	for _, v := range set.Members() {
		if g.OutDegree(v) > 0 {
			return true
		}
	}
	return false
}

package core

import (
	"fmt"
	mathbits "math/bits"

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
// exact ≤2-hop closure their step programs read is computed (≤3-hop for the
// Paths=3 extension).
//
// The closure is derived from the data dependencies of steps.go's
// primitives, which every backend shares:
//
//	Pred   = S                        (step 3 output: the sources themselves)
//	TwoHop = Γ(S)                     (step 3a rows read by step 3b; Paths=3 only)
//	Sims   = S ∪ Γ(S) [∪ Γ(TwoHop)]   (step 2 rows read by steps 3/3a/3b)
//	Trunc  = Sims ∪ Γ(Sims)           (step 1 rows read by step 2's similarities)
//
// where Γ is the out-neighbourhood. Because every step primitive is a pure
// deterministic function of its input rows (hash-keyed draws, sorted folds
// — see steps.go), computing exactly these rows yields predictions for S
// that are bit-identical to a full run filtered to S, on every backend.

// VertexSet is a fixed-universe vertex set: a bitmap for O(1) membership
// plus the sorted member list the scoped vertex loops iterate. Immutable
// after construction.
type VertexSet struct {
	bits    []uint64
	members []graph.VertexID
}

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

// finishSet freezes a bitmap into a VertexSet, materialising the sorted
// member list with one scan (members come out ascending because the scan
// walks words and bits in order).
func finishSet(bits []uint64, size int) *VertexSet {
	members := make([]graph.VertexID, 0, size)
	for w, word := range bits {
		for word != 0 {
			members = append(members, graph.VertexID(w<<6+mathbits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return &VertexSet{bits: bits, members: members}
}

// Contains reports membership. v must lie in the universe the set was built
// over (the graph's vertex range).
func (s *VertexSet) Contains(v graph.VertexID) bool { return bitsContain(s.bits, v) }

// Len returns the member count.
func (s *VertexSet) Len() int { return len(s.members) }

// Members returns the sorted member list. The slice is owned by the set and
// must not be modified.
func (s *VertexSet) Members() []graph.VertexID { return s.members }

// Frontier is the per-step vertex scope of a query-scoped run: which
// vertices each of Algorithm 2's steps must materialise so the sources'
// predictions come out bit-identical to a full run. A nil *Frontier means
// the run is unscoped (full graph); all methods are nil-safe and report
// every vertex as in scope.
type Frontier struct {
	// Pred holds the deduplicated sources: the vertices whose predictions
	// the run computes (step 3 / 3b scope).
	Pred *VertexSet
	// TwoHop is the step-3a scope of the Paths=3 extension — the relays
	// whose 2-hop path lists step 3b reads. Nil when Paths is 2.
	TwoHop *VertexSet
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
// lies outside the graph's vertex range.
func NewFrontier(g graph.View, cfg Config) (*Frontier, error) {
	if len(cfg.Sources) == 0 {
		return nil, nil
	}
	cfg = cfg.withDefaults()
	n := g.NumVertices()

	predBits := newBits(n)
	npred := 0
	for _, v := range cfg.Sources {
		if int(v) >= n {
			return nil, fmt.Errorf("core: source vertex %d outside [0,%d)", v, n)
		}
		if bitsAdd(predBits, v) {
			npred++
		}
	}
	pred := finishSet(predBits, npred)

	// Sims = Pred ∪ Γ(Pred); the bitmap starts as a copy of Pred's.
	simsBits := make([]uint64, len(predBits))
	copy(simsBits, predBits)
	nsims := npred + expandOut(g, pred.Members(), simsBits)

	f := &Frontier{Pred: pred}
	if cfg.Paths == 3 {
		// Step 3b reads the 2-hop path list of every relay of a source, and
		// step 3a reads the relay lists of a 2-hop vertex's own relays: the
		// closure deepens by one hop.
		twoBits := newBits(n)
		ntwo := expandOut(g, pred.Members(), twoBits)
		f.TwoHop = finishSet(twoBits, ntwo)
		nsims += expandOut(g, f.TwoHop.Members(), simsBits)
	}
	f.Sims = finishSet(simsBits, nsims)

	truncBits := make([]uint64, len(simsBits))
	copy(truncBits, simsBits)
	ntrunc := f.Sims.Len() + expandOut(g, f.Sims.Members(), truncBits)
	f.Trunc = finishSet(truncBits, ntrunc)
	return f, nil
}

// expandOut adds the out-neighbours of every vertex in from to bits,
// returning how many were newly added. Frozen CSRs walk rows directly;
// overlay views merge each row once into a shared buffer.
func expandOut(g graph.View, from []graph.VertexID, bits []uint64) int {
	added := 0
	if csr, ok := graph.AsCSR(g); ok {
		for _, u := range from {
			for _, v := range csr.OutNeighbors(u) {
				if bitsAdd(bits, v) {
					added++
				}
			}
		}
		return added
	}
	var buf []graph.VertexID
	for _, u := range from {
		buf = g.AppendOutRow(buf[:0], u)
		for _, v := range buf {
			if bitsAdd(bits, v) {
				added++
			}
		}
	}
	return added
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

// InTwoHop reports whether step 3a must materialise v's 2-hop path list
// (Paths=3 runs only; false for every vertex of a scoped 2-hop run, where
// the step never executes).
func (f *Frontier) InTwoHop(v graph.VertexID) bool {
	if f == nil {
		return true
	}
	return f.TwoHop != nil && f.TwoHop.Contains(v)
}

// Scope-mask bits: the per-vertex frontier membership shipped to dist
// workers (wire.ScopeEntry.Mask), one bit per step family. A worker gates
// each superstep's gather on its source's bit, which is all it needs — the
// global sets stay on the coordinator.
const (
	// ScopeTrunc marks gather sources of the truncate superstep.
	ScopeTrunc uint8 = 1 << iota
	// ScopeSims marks gather sources of the relays superstep.
	ScopeSims
	// ScopeTwoHop marks gather sources of the two-hop superstep (Paths=3).
	ScopeTwoHop
	// ScopePred marks gather sources of the final combine superstep.
	ScopePred
)

// ScopeMask returns v's scope bits. Nil-safe: an unscoped run grants every
// step.
func (f *Frontier) ScopeMask(v graph.VertexID) uint8 {
	if f == nil {
		return ScopeTrunc | ScopeSims | ScopeTwoHop | ScopePred
	}
	var m uint8
	if f.Trunc.Contains(v) {
		m |= ScopeTrunc
	}
	if f.Sims.Contains(v) {
		m |= ScopeSims
	}
	if f.TwoHop != nil && f.TwoHop.Contains(v) {
		m |= ScopeTwoHop
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
	case DistTwoHop:
		return ScopeTwoHop
	default: // DistCombine, DistCombine3
		return ScopePred
	}
}

// StepSet returns the frontier set scoping step's gather sources. Nil-safe:
// a nil receiver (unscoped run) returns nil, which the scoped-iteration
// helpers read as "every vertex".
func (f *Frontier) StepSet(step DistStep) *VertexSet {
	if f == nil {
		return nil
	}
	switch step {
	case DistTruncate:
		return f.Trunc
	case DistRelays:
		return f.Sims
	case DistTwoHop:
		return f.TwoHop
	case DistCombine, DistCombine3:
		return f.Pred
	default:
		return nil
	}
}

// StepHasWork reports whether step has any gather source with an out-edge —
// the superstep-skip test: a step whose scope set has no out-edges gathers
// nothing anywhere, and applying nothing writes the same nil state skipping
// leaves behind, so substrates may omit the superstep entirely. deg is the
// full out-degree table. Nil-safe: an unscoped run always has work.
func (f *Frontier) StepHasWork(step DistStep, deg []int32) bool {
	if f == nil {
		return true
	}
	set := f.StepSet(step)
	if set == nil {
		return false
	}
	for _, v := range set.Members() {
		if deg[v] > 0 {
			return true
		}
	}
	return false
}

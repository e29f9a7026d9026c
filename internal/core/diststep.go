package core

import (
	"cmp"
	"fmt"
	"slices"

	"snaple/internal/graph"
)

// This file exposes Algorithm 2's GAS step programs (snaple.go, khop.go) in
// a monomorphic, wire-friendly form, so that a remote worker process holding
// only one partition of a vertex-cut can execute the gather and sum+apply
// phases of every superstep. The simulated cluster runs the same programs
// through the generic gas engine; a dist worker runs them through
// DistPartition, with the mirror/master exchange carried over TCP by
// internal/wire instead of the in-memory gref tables of gas.Distribute.
//
// Determinism across substrates holds for the same reason it does between
// the serial, local and sim backends: every random draw is hash-keyed by
// (seed, vertex IDs) and every fold canonicalises its input before reducing
// (step 1 and 2 applies sort, Aggregator.FoldPaths sorts path values), so
// partials may arrive from the network in any order without changing a bit
// of the output.

// DistStep identifies one superstep of Algorithm 2's distributed pipeline.
type DistStep int

const (
	// DistTruncate is step 1: sample the truncated neighbourhoods Γ̂.
	DistTruncate DistStep = iota + 1
	// DistRelays is step 2: raw similarities plus the k_local relay selection.
	DistRelays
	// DistCombine is step 3: combine and aggregate 2-hop paths (the final
	// superstep of the paper's 2-hop configuration).
	DistCombine
	// DistTwoHop is step 3a of the 3-hop extension: materialise per-vertex
	// 2-hop path lists.
	DistTwoHop
	// DistCombine3 is step 3b of the 3-hop extension: aggregate 2- and 3-hop
	// paths into final predictions.
	DistCombine3
)

// String implements fmt.Stringer.
func (s DistStep) String() string {
	switch s {
	case DistTruncate:
		return "truncate"
	case DistRelays:
		return "relays"
	case DistCombine:
		return "combine"
	case DistTwoHop:
		return "twohop"
	case DistCombine3:
		return "combine3"
	default:
		return fmt.Sprintf("DistStep(%d)", int(s))
	}
}

// DistSteps returns the superstep pipeline for the given maximum path
// length: steps 1, 2, 3 for the paper's 2-hop setting, steps 1, 2, 3a, 3b
// for the footnote-2 extension.
func DistSteps(paths int) []DistStep {
	if paths == 3 {
		return []DistStep{DistTruncate, DistRelays, DistTwoHop, DistCombine3}
	}
	return []DistStep{DistTruncate, DistRelays, DistCombine}
}

// DistPartial is one partition's gather partial sum for one vertex in one
// superstep. Exactly one payload slice is non-nil, matching the superstep's
// gather type; a vertex with no contribution produces no DistPartial at all.
// It is what dist workers ship to the vertex's master (internal/wire encodes
// it as a partial record) when the gathering partition does not hold the
// master copy.
type DistPartial struct {
	V     graph.VertexID
	Nbrs  []graph.VertexID // DistTruncate
	Sims  []VertexSim      // DistRelays
	Cands []PathCand       // DistCombine, DistTwoHop, DistCombine3
}

// DistPartition executes Algorithm 2's supersteps over one partition of a
// vertex-cut: the edges assigned to one worker plus a local replica of every
// endpoint's state. It is the compute half of a dist worker; routing partials
// to masters and refreshed state to mirrors is the caller's job
// (internal/wire carries both for cmd/snaple-worker).
type DistPartition struct {
	st      *snapleState
	locals  []graph.VertexID         // sorted global IDs of local vertices
	index   map[graph.VertexID]int32 // global -> local
	edgeSrc []int32                  // local source index per local edge
	edgeDst []int32                  // local target index per local edge
	data    []VData                  // replica state, one per local vertex
	// scope holds each local vertex's frontier scope mask on a
	// query-scoped run (Scope* bits, frontier.go), nil on a full run. The
	// coordinator computes the global closure and ships only these local
	// bits; Gather consults the source's bit for the running step.
	scope []uint8

	// srcContig caches whether edgeSrc is grouped into one contiguous run
	// per source (0 unknown, 1 yes, 2 no) — the precondition for the
	// streaming gather. srcSorted additionally records whether those runs
	// ascend by source index, the precondition for GatherVertex's binary
	// search; both are filled by the same scan.
	srcContig uint8
	srcSorted uint8
	// GatherStream's per-source scratch, reused across runs and supersteps.
	gatherIDs   []graph.VertexID
	gatherSims  []VertexSim
	gatherCands []PathCand
}

// NewDistPartition assembles a partition from its shipped description:
// the sorted local vertex table, the full out-degree of each local vertex
// (degrees are global topology metadata the truncation draw needs), and the
// partition's edges as indices into locals. numVertices is the global vertex
// count. An empty partition (no locals, no edges) is valid.
func NewDistPartition(cfg Config, numVertices int, locals []graph.VertexID, deg []int32, edgeSrc, edgeDst []int32) (*DistPartition, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	if len(deg) != len(locals) {
		return nil, fmt.Errorf("core: dist partition: %d degrees for %d local vertices", len(deg), len(locals))
	}
	if len(edgeSrc) != len(edgeDst) {
		return nil, fmt.Errorf("core: dist partition: %d edge sources, %d edge targets", len(edgeSrc), len(edgeDst))
	}
	// The step programs index degrees by global vertex ID, so scatter the
	// local degree column into a global-length table (4 B per vertex — the
	// same static metadata every other substrate precomputes).
	fullDeg := make([]int32, numVertices)
	index := make(map[graph.VertexID]int32, len(locals))
	for i, v := range locals {
		if int(v) >= numVertices {
			return nil, fmt.Errorf("core: dist partition: local vertex %d outside [0,%d)", v, numVertices)
		}
		if i > 0 && locals[i-1] >= v {
			return nil, fmt.Errorf("core: dist partition: local vertex table not strictly ascending at %d", i)
		}
		fullDeg[v] = deg[i]
		index[v] = int32(i)
	}
	for i := range edgeSrc {
		if edgeSrc[i] < 0 || int(edgeSrc[i]) >= len(locals) ||
			edgeDst[i] < 0 || int(edgeDst[i]) >= len(locals) {
			return nil, fmt.Errorf("core: dist partition: edge %d references vertex outside the local table", i)
		}
	}
	return &DistPartition{
		st:      &snapleState{cfg: cfg, deg: fullDeg},
		locals:  locals,
		index:   index,
		edgeSrc: edgeSrc,
		edgeDst: edgeDst,
		data:    make([]VData, len(locals)),
	}, nil
}

// Config returns the partition's configuration with defaults applied.
func (p *DistPartition) Config() Config { return p.st.cfg }

// SetScope installs the per-local frontier scope masks of a query-scoped
// run (one Scope* bitmask per local vertex, aligned with Locals). A nil
// scope restores the full-run behaviour.
func (p *DistPartition) SetScope(scope []uint8) error {
	if scope != nil && len(scope) != len(p.locals) {
		return fmt.Errorf("core: dist partition: %d scope masks for %d local vertices", len(scope), len(p.locals))
	}
	p.scope = scope
	return nil
}

// inScope reports whether local vertex li gathers during step.
func (p *DistPartition) inScope(step DistStep, li int32) bool {
	return p.scope == nil || p.scope[li]&step.ScopeBit() != 0
}

// Locals returns the sorted global IDs of the partition's local vertices.
// The slice is owned by the partition and must not be modified.
func (p *DistPartition) Locals() []graph.VertexID { return p.locals }

// NumEdges returns the number of edges placed on this partition.
func (p *DistPartition) NumEdges() int { return len(p.edgeSrc) }

// LocalIndex returns the local index of v, if v is a local vertex.
func (p *DistPartition) LocalIndex(v graph.VertexID) (int, bool) {
	li, ok := p.index[v]
	return int(li), ok
}

// gatherEdges folds gather over the partition's edges, accumulating one
// partial sum per local source vertex (all of Algorithm 2's programs gather
// over out-edges). On a scoped run, edges whose source is outside step's
// frontier set contribute nothing — the worker-side twin of the frontier
// gating the sim backend's step programs apply themselves.
func gatherEdges[G any](p *DistPartition, step DistStep, gather func(si, di int32) (G, bool), sum func(a, b G) G) ([]G, []bool) {
	partial := make([]G, len(p.locals))
	has := make([]bool, len(p.locals))
	for i := range p.edgeSrc {
		si, di := p.edgeSrc[i], p.edgeDst[i]
		if !p.inScope(step, si) {
			continue
		}
		gval, ok := gather(si, di)
		if !ok {
			continue
		}
		if !has[si] {
			partial[si], has[si] = gval, true
		} else {
			partial[si] = sum(partial[si], gval)
		}
	}
	return partial, has
}

// packPartials converts aligned (partial, has) columns into the sparse wire
// form, ascending by local index (hence by vertex ID).
func packPartials[G any](p *DistPartition, partial []G, has []bool, set func(*DistPartial, G)) []DistPartial {
	n := 0
	for _, h := range has {
		if h {
			n++
		}
	}
	out := make([]DistPartial, 0, n)
	for li, h := range has {
		if !h {
			continue
		}
		dp := DistPartial{V: p.locals[li]}
		set(&dp, partial[li])
		out = append(out, dp)
	}
	return out
}

// Gather runs step's gather phase over the partition's edges and returns one
// partial per contributing local vertex, ascending by vertex ID. The caller
// routes each partial to the vertex's master (which may be this partition).
func (p *DistPartition) Gather(step DistStep) ([]DistPartial, error) {
	switch step {
	case DistTruncate:
		prog := step1{p.st}
		partial, has := gatherEdges(p, step, func(si, di int32) ([]graph.VertexID, bool) {
			return prog.Gather(p.locals[si], p.locals[di], &p.data[si], &p.data[di], nil)
		}, prog.Sum)
		return packPartials(p, partial, has, func(dp *DistPartial, g []graph.VertexID) { dp.Nbrs = g }), nil
	case DistRelays:
		prog := step2{p.st}
		partial, has := gatherEdges(p, step, func(si, di int32) ([]VertexSim, bool) {
			return prog.Gather(p.locals[si], p.locals[di], &p.data[si], &p.data[di], nil)
		}, prog.Sum)
		return packPartials(p, partial, has, func(dp *DistPartial, g []VertexSim) { dp.Sims = g }), nil
	case DistCombine:
		prog := step3{p.st}
		partial, has := gatherEdges(p, step, func(si, di int32) ([]PathCand, bool) {
			return prog.Gather(p.locals[si], p.locals[di], &p.data[si], &p.data[di], nil)
		}, prog.Sum)
		return packPartials(p, partial, has, func(dp *DistPartial, g []PathCand) { dp.Cands = g }), nil
	case DistTwoHop:
		prog := step3a{p.st}
		partial, has := gatherEdges(p, step, func(si, di int32) ([]PathCand, bool) {
			return prog.Gather(p.locals[si], p.locals[di], &p.data[si], &p.data[di], nil)
		}, prog.Sum)
		return packPartials(p, partial, has, func(dp *DistPartial, g []PathCand) { dp.Cands = g }), nil
	case DistCombine3:
		prog := step3b{p.st}
		partial, has := gatherEdges(p, step, func(si, di int32) ([]PathCand, bool) {
			return prog.Gather(p.locals[si], p.locals[di], &p.data[si], &p.data[di], nil)
		}, prog.Sum)
		return packPartials(p, partial, has, func(dp *DistPartial, g []PathCand) { dp.Cands = g }), nil
	default:
		return nil, fmt.Errorf("core: unknown dist step %d", int(step))
	}
}

// srcContiguous reports whether the partition's edges are grouped into one
// contiguous run per source vertex — true for every partition cut from a CSR
// graph in edge order (the engine's cut), and the precondition for the
// run-at-a-time streaming gather. The same pass records whether the runs are
// ascending by source (srcSorted), the extra precondition GatherVertex needs
// to find a run by binary search. The check is linear and cached.
func (p *DistPartition) srcContiguous() bool {
	if p.srcContig != 0 {
		return p.srcContig == 1
	}
	seen := make([]bool, len(p.locals))
	p.srcContig = 1
	p.srcSorted = 1
	prev := int32(-1)
	for i := 0; i < len(p.edgeSrc); {
		si := p.edgeSrc[i]
		if seen[si] {
			p.srcContig = 2
			p.srcSorted = 2
			break
		}
		if si < prev {
			p.srcSorted = 2
		}
		seen[si] = true
		prev = si
		j := i + 1
		for j < len(p.edgeSrc) && p.edgeSrc[j] == si {
			j++
		}
		i = j
	}
	return p.srcContig == 1
}

// CanGatherVertex reports whether GatherVertex is available: the partition's
// edges must be grouped per source with runs ascending by local index, which
// holds for every partition the engine cuts from a graph in edge order.
func (p *DistPartition) CanGatherVertex() bool {
	return p.srcContiguous() && p.srcSorted == 1
}

// GatherStream runs step's gather phase one source vertex at a time, handing
// emit each contributing source's partial as soon as its edge run completes —
// the producer side of the pipelined superstep, which streams partials onto
// the wire while later sources are still gathering. The DistPartial (and its
// slices) is scratch owned by the partition, valid only during the emit call;
// emit must encode or copy, not retain. Partials arrive ascending by local
// index, one per contributing source, exactly like Gather's. An emit error
// aborts the stream and is returned.
//
// When the partition's edges are not source-contiguous the stream degrades
// to the buffered Gather and emits its result in order.
func (p *DistPartition) GatherStream(step DistStep, emit func(li int32, dp *DistPartial) error) error {
	if !p.srcContiguous() {
		parts, err := p.Gather(step)
		if err != nil {
			return err
		}
		for i := range parts {
			li := p.index[parts[i].V]
			if err := emit(li, &parts[i]); err != nil {
				return err
			}
		}
		return nil
	}
	switch step {
	case DistTruncate, DistRelays, DistCombine, DistTwoHop, DistCombine3:
	default:
		return fmt.Errorf("core: unknown dist step %d", int(step))
	}
	var dp DistPartial
	for i := 0; i < len(p.edgeSrc); {
		si := p.edgeSrc[i]
		j := i + 1
		for j < len(p.edgeSrc) && p.edgeSrc[j] == si {
			j++
		}
		if p.gatherRun(step, si, i, j, &dp) {
			if err := emit(si, &dp); err != nil {
				return err
			}
		}
		i = j
	}
	return nil
}

// gatherRun gathers one source's edge run [i,j) into dp, reporting whether
// the source contributed. dp's slices alias the partition's gather scratch,
// valid until the next gatherRun call.
//
// The run bodies inline the step programs of snaple.go / khop.go with two
// divergences that cannot change a bit of the output: the frontier checks
// are dropped (a dist worker's frontier is always nil — scoping is the
// shipped scope masks, consulted below), and candidate lists are built in
// edge order without the buffered path's sorted merge — Apply canonicalises
// (sortPathCands + value-sorting folds) before any order could matter.
func (p *DistPartition) gatherRun(step DistStep, si int32, i, j int, dp *DistPartial) bool {
	if !p.inScope(step, si) {
		return false
	}
	cfg := &p.st.cfg
	deg := p.st.deg
	src := p.locals[si]
	srcD := &p.data[si]
	switch step {
	case DistTruncate:
		ids := p.gatherIDs[:0]
		sd := int(deg[src])
		for e := i; e < j; e++ {
			dst := p.locals[p.edgeDst[e]]
			if keepTruncated(cfg.Seed, src, dst, sd, cfg.ThrGamma) {
				ids = append(ids, dst)
			}
		}
		p.gatherIDs = ids
		if len(ids) > 0 {
			*dp = DistPartial{V: src, Nbrs: ids}
			return true
		}
	case DistRelays:
		sims := p.gatherSims[:0]
		for e := i; e < j; e++ {
			di := p.edgeDst[e]
			dst := p.locals[di]
			dstD := &p.data[di]
			sims = append(sims, VertexSim{
				V:   dst,
				Sim: simScore(cfg.Score.Sim, src, dst, srcD.Nbrs, dstD.Nbrs, int(deg[src]), int(deg[dst])),
			})
		}
		p.gatherSims = sims
		// Every edge contributes a similarity, and j > i.
		*dp = DistPartial{V: src, Sims: sims}
		return true
	case DistCombine:
		comb := cfg.Score.Comb.Fn
		cands := p.gatherCands[:0]
		for e := i; e < j; e++ {
			di := p.edgeDst[e]
			dstD := &p.data[di]
			suv, ok := lookupSim(srcD.Sims, p.locals[di])
			if !ok || len(dstD.Sims) == 0 {
				continue
			}
			for _, zs := range dstD.Sims {
				if zs.V == src || containsVertex(srcD.Nbrs, zs.V) {
					continue
				}
				cands = append(cands, PathCand{Z: zs.V, S: comb(suv, zs.Sim)})
			}
		}
		p.gatherCands = cands
		if len(cands) > 0 {
			*dp = DistPartial{V: src, Cands: cands}
			return true
		}
	case DistTwoHop:
		comb := cfg.Score.Comb.Fn
		cands := p.gatherCands[:0]
		for e := i; e < j; e++ {
			di := p.edgeDst[e]
			dstD := &p.data[di]
			svz, ok := lookupSim(srcD.Sims, p.locals[di])
			if !ok || len(dstD.Sims) == 0 {
				continue
			}
			for _, ws := range dstD.Sims {
				if ws.V == src {
					continue
				}
				cands = append(cands, PathCand{Z: ws.V, S: comb(svz, ws.Sim)})
			}
		}
		p.gatherCands = cands
		if len(cands) > 0 {
			*dp = DistPartial{V: src, Cands: cands}
			return true
		}
	case DistCombine3:
		comb := cfg.Score.Comb.Fn
		cands := p.gatherCands[:0]
		for e := i; e < j; e++ {
			di := p.edgeDst[e]
			dstD := &p.data[di]
			suv, ok := lookupSim(srcD.Sims, p.locals[di])
			if !ok {
				continue
			}
			for _, zs := range dstD.Sims {
				if zs.V == src || containsVertex(srcD.Nbrs, zs.V) {
					continue
				}
				cands = append(cands, PathCand{Z: zs.V, S: comb(suv, zs.Sim)})
			}
			for _, pc := range dstD.TwoHop {
				if pc.Z == src || containsVertex(srcD.Nbrs, pc.Z) {
					continue
				}
				cands = append(cands, PathCand{Z: pc.Z, S: comb(suv, pc.S)})
			}
		}
		p.gatherCands = cands
		if len(cands) > 0 {
			*dp = DistPartial{V: src, Cands: cands}
			return true
		}
	}
	return false
}

// GatherVertex re-runs step's gather for the single local vertex li, filling
// dp exactly as GatherStream's emit for that vertex would and reporting
// whether it contributed. dp's slices alias the partition's gather scratch,
// valid until the next gather call.
//
// This is the apply-time twin of the streaming gather: a master that also
// gathers locally can recompute its own partial on demand instead of keeping
// an encoded copy across the superstep's exchange. Re-gathering after other
// vertices have applied is exact: apply writes only the step's output field,
// which the same step's gather never reads — the same property that lets
// GatherStream's inline applies run mid-stream.
//
// Requires CanGatherVertex (source-grouped, ascending edge runs).
func (p *DistPartition) GatherVertex(step DistStep, li int32, dp *DistPartial) (bool, error) {
	switch step {
	case DistTruncate, DistRelays, DistCombine, DistTwoHop, DistCombine3:
	default:
		return false, fmt.Errorf("core: unknown dist step %d", int(step))
	}
	if !p.CanGatherVertex() {
		return false, fmt.Errorf("core: GatherVertex on a partition without sorted source runs")
	}
	if li < 0 || int(li) >= len(p.locals) {
		return false, fmt.Errorf("core: GatherVertex: local index %d outside [0,%d)", li, len(p.locals))
	}
	i, found := slices.BinarySearch(p.edgeSrc, li)
	if !found {
		return false, nil // no out-edges here, so no contribution
	}
	j := i + 1
	for j < len(p.edgeSrc) && p.edgeSrc[j] == li {
		j++
	}
	return p.gatherRun(step, li, i, j, dp), nil
}

// Apply runs step's sum+apply phase for one vertex mastered on this
// partition: it folds parts — the local partial plus any partials received
// from other partitions, in any order — and updates v's local replica, which
// becomes the authoritative copy to broadcast. parts may be empty (no edge
// anywhere contributed); apply still runs, clearing the step's output field
// exactly as the gas engine does for an empty gather.
func (p *DistPartition) Apply(step DistStep, v graph.VertexID, parts []DistPartial) error {
	li, ok := p.index[v]
	if !ok {
		return fmt.Errorf("core: apply for %v: vertex %d is not local", step, v)
	}
	d := &p.data[li]
	// A single partial (the streaming session's pre-merged case) skips the
	// concatenation alloc and feeds its slices to apply directly; the cand
	// steps still canonicalise, which may reorder the caller's slice in
	// place — harmless, callers hand over scratch or routing copies.
	one := len(parts) == 1
	switch step {
	case DistTruncate:
		var sum []graph.VertexID
		if one {
			sum = parts[0].Nbrs
		} else {
			for _, dp := range parts {
				sum = append(sum, dp.Nbrs...)
			}
		}
		step1{p.st}.Apply(v, d, sum, len(sum) > 0)
	case DistRelays:
		var sum []VertexSim
		if one {
			sum = parts[0].Sims
		} else {
			for _, dp := range parts {
				sum = append(sum, dp.Sims...)
			}
		}
		step2{p.st}.Apply(v, d, sum, len(sum) > 0)
	case DistCombine, DistTwoHop, DistCombine3:
		var sum []PathCand
		if one {
			sum = parts[0].Cands
		} else {
			for _, dp := range parts {
				sum = append(sum, dp.Cands...)
			}
		}
		// The gas engine merges partials Z-sorted; concatenation needs one
		// sort to restore the grouping Apply expects. Equal-Z value order is
		// irrelevant: FoldPaths sorts each group's values before folding.
		sortPathCands(sum)
		switch step {
		case DistCombine:
			step3{p.st}.Apply(v, d, sum, len(sum) > 0)
		case DistTwoHop:
			step3a{p.st}.Apply(v, d, sum, len(sum) > 0)
		default:
			step3b{p.st}.Apply(v, d, sum, len(sum) > 0)
		}
	default:
		return fmt.Errorf("core: unknown dist step %d", int(step))
	}
	return nil
}

// State returns a copy of v's local replica, for master→mirror broadcast and
// result collection.
func (p *DistPartition) State(v graph.VertexID) (VData, bool) {
	li, ok := p.index[v]
	if !ok {
		return VData{}, false
	}
	return p.data[li], true
}

// MutableState returns a pointer to v's local replica so a refresh can be
// decoded in place, reusing the slice capacity the previous refresh left
// behind. The pointer is valid until the partition is rebuilt.
func (p *DistPartition) MutableState(v graph.VertexID) (*VData, bool) {
	li, ok := p.index[v]
	if !ok {
		return nil, false
	}
	return &p.data[li], true
}

// SortDistPartials orders partials by vertex ID (the canonical wire order;
// routing may interleave sources). Ties are impossible within one message.
func SortDistPartials(parts []DistPartial) {
	slices.SortFunc(parts, func(a, b DistPartial) int { return cmp.Compare(a.V, b.V) })
}

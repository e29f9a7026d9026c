package core

import (
	"fmt"
	"slices"

	"snaple/internal/graph"
)

// This file is the wire worker's scheduler of Algorithm 2: DistPartition runs
// the gather and sum+apply phases of every superstep over one shard of a
// vertex-cut — the very shard partition.NewCut builds for the sim's GAS
// engine — with the mirror/master exchange carried over TCP by internal/wire
// where the sim moves it in memory. Like
// StepRunner and the sim backend's GAS programs it owns no step logic: the
// gathers are steps.go's per-edge kernels (keepTruncated, Similarity.Score,
// appendCombine, appendTwoHop, appendCombine3) and the applies its per-vertex
// ones (applyTruncate, applyRelays, applyTwoHop, applyCombine). What is here
// is the streaming loop over a shard's sorted source runs and the per-job
// replica state.
//
// Determinism across substrates holds for the same reason it does between
// the serial, local and sim backends: every random draw is hash-keyed by
// (seed, vertex IDs) and every apply canonicalises its input before reducing
// (the applies sort or merge it, Aggregator.FoldPaths sorts path values), so
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

// DistPartition is one job's compute state over one shard of a vertex-cut:
// the edges assigned to one worker plus a local replica of every endpoint's
// state. It is the compute half of a dist worker; routing partials to masters
// and refreshed state to mirrors is the caller's job (internal/wire carries
// both for cmd/snaple-worker). Local vertices are addressed by local index —
// their position in the shard's sorted Locals.
type DistPartition struct {
	cfg Config // degrees come from the shard, scoping from scope
	// shard is the static half: validated once where the worker pinned or
	// installed it, immutable, shared read-only with every other session.
	shard *graph.ShardFile
	data  []VData // replica state, one per local vertex
	// scope holds each local vertex's frontier scope mask on a
	// query-scoped run (Scope* bits, frontier.go), nil on a full run. The
	// coordinator computes the global closure and ships only these local
	// bits; the gather consults the source's bit for the running step.
	scope []uint8

	// The gather's per-source scratch, reused across runs and supersteps.
	gatherIDs   []graph.VertexID
	gatherSims  []VertexSim
	gatherCands []PathCand
	// s is the applies' scratch: applies run one at a time, on the session's
	// gather goroutine and then after it.
	s Scratch
}

// NewDistPartition opens a job over a validated shard (graph.ShardFile's
// Validate is the one check; nothing is re-checked or indexed here). It
// allocates only the per-job replica state.
func NewDistPartition(cfg Config, shard *graph.ShardFile) (*DistPartition, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	return &DistPartition{
		cfg:   cfg,
		shard: shard,
		data:  make([]VData, len(shard.Locals)),
	}, nil
}

// Config returns the partition's configuration with defaults applied.
func (p *DistPartition) Config() Config { return p.cfg }

// SetScope installs the per-local frontier scope masks of a query-scoped
// run (one Scope* bitmask per local vertex, aligned with the shard's Locals).
// A nil scope restores the full-run behaviour.
func (p *DistPartition) SetScope(scope []uint8) error {
	if scope != nil && len(scope) != len(p.data) {
		return fmt.Errorf("core: dist partition: %d scope masks for %d local vertices", len(scope), len(p.data))
	}
	p.scope = scope
	return nil
}

// inScope reports whether local vertex li gathers during step.
func (p *DistPartition) inScope(step DistStep, li int32) bool {
	return p.scope == nil || p.scope[li]&step.ScopeBit() != 0
}

// LocalIndex returns the local index of v, if v is a local vertex: a binary
// search of the shard's sorted Locals, so the job needs no index of its own.
func (p *DistPartition) LocalIndex(v graph.VertexID) (int32, bool) {
	li, ok := slices.BinarySearch(p.shard.Locals, v)
	return int32(li), ok
}

// Data returns local vertex li's replica: what a master broadcasts and
// collect reads, and where a mirror's refresh is decoded in place.
func (p *DistPartition) Data(li int32) *VData { return &p.data[li] }

// GatherStream runs step's gather phase one source vertex at a time, handing
// emit each contributing source's partial as soon as its edge run completes —
// the producer side of the pipelined superstep, which streams partials onto
// the wire while later sources are still gathering. The DistPartial (and its
// slices) is scratch owned by the partition, valid only during the emit call;
// emit must encode or copy, not retain. Partials arrive ascending by local
// index, one per contributing source. An emit error aborts the stream and is
// returned.
func (p *DistPartition) GatherStream(step DistStep, emit func(li int32, dp *DistPartial) error) error {
	if step < DistTruncate || step > DistCombine3 {
		return fmt.Errorf("core: unknown dist step %d", int(step))
	}
	edgeSrc := p.shard.EdgeSrc
	var dp DistPartial
	for i := 0; i < len(edgeSrc); {
		si := edgeSrc[i]
		j := i + 1
		for j < len(edgeSrc) && edgeSrc[j] == si {
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
// The bodies are the per-edge gather kernels, with two divergences from the
// sim backend's schedule that cannot change a bit of the output: scoping is
// the shipped scope masks instead of a frontier (a worker holds one shard and
// cannot compute the global closure), and candidate lists are left in edge
// order without the gas engine's sorted merge — the applies canonicalise
// before any order could matter.
func (p *DistPartition) gatherRun(step DistStep, si int32, i, j int, dp *DistPartial) bool {
	if !p.inScope(step, si) {
		return false
	}
	cfg := &p.cfg
	sh := p.shard
	src, srcD := sh.Locals[si], &p.data[si]
	*dp = DistPartial{V: src}
	switch step {
	case DistTruncate:
		ids, srcDeg := p.gatherIDs[:0], int(sh.Deg[si])
		for _, di := range sh.EdgeDst[i:j] {
			if dst := sh.Locals[di]; keepTruncated(cfg.Seed, src, dst, srcDeg, cfg.ThrGamma) {
				ids = append(ids, dst)
			}
		}
		p.gatherIDs, dp.Nbrs = ids, ids
		return len(ids) > 0
	case DistRelays:
		sims := p.gatherSims[:0]
		for _, di := range sh.EdgeDst[i:j] {
			sims = append(sims, VertexSim{
				V:   sh.Locals[di],
				Sim: cfg.Score.Sim.Score(srcD.Nbrs, p.data[di].Nbrs, int(sh.Deg[si]), int(sh.Deg[di])),
			})
		}
		p.gatherSims, dp.Sims = sims, sims
		return true // every edge contributes a similarity, and j > i
	default:
		kernel := appendCombine
		switch step {
		case DistTwoHop:
			kernel = appendTwoHop
		case DistCombine3:
			kernel = appendCombine3
		}
		cands := p.gatherCands[:0]
		for _, di := range sh.EdgeDst[i:j] {
			cands = kernel(cfg.Score.Comb, cands, src, sh.Locals[di], srcD, &p.data[di])
		}
		p.gatherCands, dp.Cands = cands, cands
		return len(cands) > 0
	}
}

// GatherVertex re-runs step's gather for the single local vertex li, filling
// dp exactly as GatherStream's emit for that vertex would and reporting
// whether it contributed. dp's slices alias the partition's gather scratch,
// valid until the next gather call.
//
// This is the apply-time twin of the streaming gather: a master that also
// gathers locally recomputes its own partial on demand instead of keeping an
// encoded copy across the superstep's exchange. Re-gathering after other
// vertices have applied is exact: apply writes only the step's output field,
// which the same step's gather never reads — the same property that lets
// GatherStream's inline applies run mid-stream. The run is found by binary
// search, which a validated shard's non-decreasing EdgeSrc allows.
func (p *DistPartition) GatherVertex(step DistStep, li int32, dp *DistPartial) bool {
	edgeSrc := p.shard.EdgeSrc
	i, found := slices.BinarySearch(edgeSrc, li)
	if !found {
		return false // no out-edges here, so no contribution
	}
	j := i + 1
	for j < len(edgeSrc) && edgeSrc[j] == li {
		j++
	}
	return p.gatherRun(step, li, i, j, dp)
}

// Apply runs step's sum+apply phase for local vertex li, mastered on this
// partition: it folds parts — the local partial plus any partials received
// from other partitions, in any order — and updates li's replica, which
// becomes the authoritative copy to broadcast. parts may be empty (no edge
// anywhere contributed); apply still runs, clearing the step's output field
// exactly as the gas engine does for an empty gather.
func (p *DistPartition) Apply(step DistStep, li int32, parts []DistPartial) error {
	v, d := p.shard.Locals[li], &p.data[li]
	// A single partial (the streaming session's pre-merged case) skips the
	// concatenation alloc and feeds its slices to the apply directly; step 2's
	// apply sorts in place, which may reorder the caller's slice — harmless,
	// callers hand over scratch or routing copies.
	cands := func(dp *DistPartial) []PathCand { return dp.Cands }
	switch step {
	case DistTruncate:
		d.Nbrs = applyTruncate(concat(parts, func(dp *DistPartial) []graph.VertexID { return dp.Nbrs }))
	case DistRelays:
		d.Sims = p.s.applyRelays(&p.cfg, v, concat(parts, func(dp *DistPartial) []VertexSim { return dp.Sims }))
	case DistTwoHop:
		d.TwoHop = p.s.applyTwoHop(v, concat(parts, cands), nil)
	case DistCombine, DistCombine3:
		d.Pred = p.s.applyCombine(&p.cfg, v, concat(parts, cands), nil)
	default:
		return fmt.Errorf("core: unknown dist step %d", int(step))
	}
	return nil
}

// concat joins one payload column of parts, handing a single part's slice
// over as is.
func concat[T any](parts []DistPartial, col func(*DistPartial) []T) []T {
	if len(parts) == 1 {
		return col(&parts[0])
	}
	var sum []T
	for i := range parts {
		sum = append(sum, col(&parts[i])...)
	}
	return sum
}

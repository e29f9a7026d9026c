package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"snaple/internal/graph"
)

// This file is Algorithm 2's one distributed scheduler: DistPartition runs
// the gather and sum+apply phases of every superstep over one shard of a
// vertex cut (partition.NewCut). Two drivers move what it produces: a fleet
// worker (internal/wire) streams partials to their masters and refreshed
// state to the mirrors over TCP, and the sim backend (engine.Sim) hands them
// over in memory and prices them with the paper's cost model (inprocess.go).
// Like StepRunner it owns no step logic: the gathers are steps.go's per-edge
// kernels (keepTruncated, Similarity.Score, appendCombine) and the applies
// its per-vertex ones (applyTruncate, applyRelays, applyCombine). What is
// here is the per-job state — indexed by the job's slots, the shard's locals
// on a full run and the closure's vertices on a scoped one — and the
// streaming loop over the slots' edge runs.
//
// Determinism across substrates holds for the same reason it does between
// the serial and local backends: every random draw is hash-keyed by (seed,
// vertex IDs) and every apply canonicalises its input before reducing (the
// applies merge, sort or group it, Aggregator.FoldPaths sorts path values), so
// partials may arrive from the network in any order without changing a bit
// of the output.

// DistStep identifies one superstep of Algorithm 2's distributed pipeline.
type DistStep int

const (
	// DistTruncate is step 1: sample the truncated neighbourhoods Γ̂.
	DistTruncate DistStep = iota + 1
	// DistRelays is step 2: raw similarities plus the k_local relay selection.
	DistRelays
	// DistCombine is step 3, the final superstep: combine and aggregate
	// 2-hop paths into predictions.
	DistCombine
	// DistReplicate is BASELINE's step 2: replicate each neighbour's full
	// neighbourhood onto u (baseline.go). In process only.
	DistReplicate
	// DistJaccard is BASELINE's step 3: forward the replicated lists to the
	// 2-hop sources and score with Jaccard. In process only.
	DistJaccard
)

// ErrInProcessStep rejects one of BASELINE's step kinds outside the
// in-process driver: they gather into a column only BASELINE jobs allocate,
// and no partial record or frame of the wire carries it.
var ErrInProcessStep = errors.New("core: step runs only in process")

// inProcess reports whether s is one of BASELINE's in-process step kinds.
func (s DistStep) inProcess() bool { return s == DistReplicate || s == DistJaccard }

// String implements fmt.Stringer.
func (s DistStep) String() string {
	switch s {
	case DistTruncate:
		return "truncate"
	case DistRelays:
		return "relays"
	case DistCombine:
		return "combine"
	case DistReplicate:
		return "replicate"
	case DistJaccard:
		return "jaccard"
	default:
		return fmt.Sprintf("DistStep(%d)", int(s))
	}
}

// DistSteps returns Algorithm 2's superstep pipeline: steps 1, 2 and 3.
func DistSteps() []DistStep {
	return []DistStep{DistTruncate, DistRelays, DistCombine}
}

// VertexSim pairs a neighbour with its raw similarity (one entry of the
// Du.sims dictionary of Algorithm 2).
type VertexSim struct {
	V   graph.VertexID
	Sim float64
}

// VData is the per-vertex state of Algorithm 2: the (truncated)
// neighbourhood Γ̂, the k_local most similar neighbours, and the final
// predictions. It is exported because the dist backend ships Nbrs and Sims
// between worker processes during master→mirror refreshes (internal/wire
// encodes them as a state record); Pred, written by the last superstep, is
// collected from the masters and never refreshed.
type VData struct {
	Nbrs []graph.VertexID // Γ̂(u), sorted ascending
	Sims []VertexSim      // selected relays, sorted by V ascending
	Pred []Prediction     // final top-k, best first
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
	Cands []PathCand       // DistCombine
}

// DistPartition is one job's compute state over one shard of a vertex-cut:
// the edges assigned to one worker plus a replica of the state of every
// vertex the job holds. It is the compute half of a dist worker and of a sim
// partition; routing partials to masters and refreshed state to mirrors is
// the caller's job (internal/wire carries both for cmd/snaple-worker, and
// engine.Sim hands them over in memory).
//
// The job's vertices are its slots, numbered densely in ascending vertex
// order, and every per-job column — replica state, scope masks, edge runs —
// is indexed by slot. Like Arena, a job comes in two index forms: a full job
// (NewDistPartition) has one slot per local of the shard, slot i being local
// index i; a query-scoped job (NewScopedDistPartition) has one slot per
// vertex of the coordinator's closure entries and allocates and walks
// nothing of the shard's length. Gather, apply and the apply-time gather
// are the same loops in both forms.
type DistPartition struct {
	cfg Config // degrees come from the shard, scoping from scope
	// shard is the static half: validated once where the worker pinned or
	// installed it, immutable, shared read-only with every other session.
	shard *graph.ShardFile

	// locals holds each slot's local index, nil in the full form (where the
	// slot is the local index); verts each slot's vertex (the shard's Locals
	// in the full form).
	locals []int32
	verts  []graph.VertexID
	// runs holds each slot's out-edges on the shard and where their
	// destinations' slots start in dstSlot, resolved once at open. In the full
	// form dstSlot is the shard's EdgeDst itself.
	runs    []edgeRun
	dstSlot []int32 // -1: a destination outside the job, read as empty state
	data    []VData // replica state, one per slot
	// scope holds each slot's frontier scope mask on a query-scoped job
	// (Scope* bits, frontier.go), nil on a full one. The coordinator computes
	// the global closure and ships only these bits; the gather consults the
	// source's bit for the running step.
	scope []uint8

	// The gather's per-source scratch, reused across runs and supersteps.
	gatherIDs   []graph.VertexID
	gatherSims  []VertexSim
	gatherCands []PathCand
	// none is the state of a destination outside the job: zero, never written.
	none VData
	// s is the applies' scratch: applies run one at a time, on the session's
	// gather goroutine and then after it.
	s Scratch

	// The in-process driver's state (inprocess.go), unused on a fleet worker:
	// the per-edge price sink of the running gather, the step's partials held
	// for the masters, and BASELINE's replicated lists, which only BASELINE
	// jobs allocate (NewBaselinePartition).
	meter func(bytes int64) bool
	held  heldPartials
	two   [][]nbrList
}

// edgeRun is one slot's out-edges, EdgeSrc/EdgeDst[lo:hi] of the shard, whose
// destinations' slots are dstSlot[dst : dst+hi-lo].
type edgeRun struct{ lo, hi, dst int }

// ErrScopeOrder rejects a scoped job whose vertices are not strictly
// ascending: the slot form is a sorted list, and a worker refuses hostile
// input rather than sorting it silently.
var ErrScopeOrder = errors.New("core: dist partition: scope vertices not strictly ascending")

// NewDistPartition opens a full job over a validated, indexed shard
// (graph.ShardFile's Validate is the one check, and IndexRuns gave it its
// run-offset column; nothing is re-checked here): one slot per local vertex.
// It allocates the per-job replica state and reads each local's edge run
// from the run-offset column.
func NewDistPartition(cfg Config, shard *graph.ShardFile) (*DistPartition, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	return newFullPartition(cfg, shard), nil
}

func newFullPartition(cfg Config, shard *graph.ShardFile) *DistPartition {
	p := &DistPartition{cfg: cfg, shard: shard, verts: shard.Locals, dstSlot: shard.EdgeDst,
		data: make([]VData, len(shard.Locals))}
	p.resolveRuns()
	return p
}

// NewScopedDistPartition opens a query-scoped job over a validated shard: one
// slot per vertex of verts, which must be local to the shard and strictly
// ascending, with scope[i] the scope mask of verts[i]. The partition keeps
// both slices. Every table it builds is sized by verts and by their out-edges
// on the shard: the slots' local indices are found by galloping forward
// through the shard's sorted locals, their edge runs read from its run-offset
// column, and the slot of every destination a gather reads state from by one
// sort of those edges merged with the slot list.
func NewScopedDistPartition(cfg Config, shard *graph.ShardFile, verts []graph.VertexID, scope []uint8) (*DistPartition, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	if len(scope) != len(verts) {
		return nil, fmt.Errorf("core: dist partition: %d scope masks for %d vertices", len(scope), len(verts))
	}
	p := &DistPartition{cfg: cfg, shard: shard, verts: verts, scope: scope,
		locals: make([]int32, len(verts)), data: make([]VData, len(verts))}
	li := 0
	for i, v := range verts {
		if i > 0 && v <= verts[i-1] {
			return nil, fmt.Errorf("%w: vertex %d after %d", ErrScopeOrder, v, verts[i-1])
		}
		if li = seek(shard.Locals, li, v); li == len(shard.Locals) || shard.Locals[li] != v {
			return nil, fmt.Errorf("core: dist partition: vertex %d is not local to shard %d", v, shard.Shard)
		}
		p.locals[i] = int32(li)
	}
	p.resolveRuns()
	if err := p.resolveDestinations(); err != nil {
		return nil, err
	}
	return p, nil
}

// resolveRuns reads every slot's edge run from the shard's run-offset
// column, derived once for every job where the shard was opened
// (graph.ShardFile.IndexRuns).
func (p *DistPartition) resolveRuns() {
	runStart := p.shard.RunStart
	p.runs = make([]edgeRun, len(p.verts))
	for s := range p.runs {
		li := p.local(int32(s))
		lo := int(runStart[li])
		p.runs[s] = edgeRun{lo: lo, hi: int(runStart[li+1]), dst: lo}
	}
}

// resolveDestinations builds dstSlot for a scoped job: for every edge of a
// slot that gathers in a step reading its destinations' state (every step but
// the truncation, which reads only their ids), the destination's slot, or -1
// when the destination is outside the job. The edges are keyed by destination
// local index, sorted once and merged with the ascending slot list — no
// search per edge. A key packs the destination above the edge's position, so
// the edges read must number fewer than 2^32.
func (p *DistPartition) resolveDestinations() error {
	edgeDst := p.shard.EdgeDst
	n := 0
	for s, r := range p.runs {
		if p.scope[s]&^ScopeTrunc != 0 {
			p.runs[s].dst = n
			n += r.hi - r.lo
		}
	}
	if uint64(n) > math.MaxUint32 {
		return fmt.Errorf("core: dist partition: %d edges read destination state, more than a scoped job indexes", n)
	}
	keys := make([]uint64, 0, n)
	for s, r := range p.runs {
		if p.scope[s]&^ScopeTrunc != 0 {
			for k, di := range edgeDst[r.lo:r.hi] {
				keys = append(keys, uint64(di)<<32|uint64(r.dst+k))
			}
		}
	}
	slices.Sort(keys)
	p.dstSlot = make([]int32, n)
	s := 0
	for _, key := range keys {
		di := int32(key >> 32)
		for s < len(p.locals) && p.locals[s] < di {
			s++
		}
		slot := int32(-1)
		if s < len(p.locals) && p.locals[s] == di {
			slot = int32(s)
		}
		p.dstSlot[uint32(key)] = slot
	}
	return nil
}

// seek returns the first index i >= from with xs[i] >= x (len(xs) if none),
// for ascending xs: an exponential search forward from from, so a target k
// places away costs O(log k).
func seek[T cmp.Ordered](xs []T, from int, x T) int {
	lo, bound := from, 1
	for lo+bound <= len(xs) && xs[lo+bound-1] < x {
		lo += bound
		bound *= 2
	}
	i, _ := slices.BinarySearch(xs[lo:min(lo+bound, len(xs))], x)
	return lo + i
}

// SearchFrom finds x in ascending xs as slices.BinarySearch does, galloping
// forward from *at, where the caller's previous search ended, and leaves *at
// at the place found: a stream of ascending keys — the records one worker
// sends in a phase — costs O(log gap) per key. A key below the previous
// one searches from the start.
func SearchFrom[T cmp.Ordered](xs []T, at *int, x T) (int, bool) {
	from := *at
	if from > 0 && xs[from-1] >= x {
		from = 0
	}
	i := seek(xs, from, x)
	*at = i
	return i, i < len(xs) && xs[i] == x
}

// Config returns the partition's configuration with defaults applied.
func (p *DistPartition) Config() Config { return p.cfg }

// NumSlots returns the job's vertex count: the shard's locals on a full job,
// the closure entries on a scoped one.
func (p *DistPartition) NumSlots() int { return len(p.verts) }

// Vertex returns slot s's vertex.
func (p *DistPartition) Vertex(s int32) graph.VertexID { return p.verts[s] }

// local returns slot s's local index in the shard.
func (p *DistPartition) local(s int32) int32 {
	if p.locals == nil {
		return s
	}
	return p.locals[s]
}

// Slot returns v's slot, if the job holds v: a binary search of the job's
// ascending vertices.
func (p *DistPartition) Slot(v graph.VertexID) (int32, bool) {
	s, ok := slices.BinarySearch(p.verts, v)
	return int32(s), ok
}

// inScope reports whether slot s gathers during step.
func (p *DistPartition) inScope(step DistStep, s int32) bool {
	return p.scope == nil || p.scope[s]&step.ScopeBit() != 0
}

// Data returns slot s's replica: what a master broadcasts and collect reads,
// and where a mirror's refresh is decoded in place.
func (p *DistPartition) Data(s int32) *VData { return &p.data[s] }

// dstData returns the state of the destination of the k-th edge of run r.
func (p *DistPartition) dstData(r edgeRun, k int) *VData {
	if ds := p.dstSlot[r.dst+k]; ds >= 0 {
		return &p.data[ds]
	}
	return &p.none
}

// GatherStream runs step's gather phase one slot at a time, handing emit each
// contributing slot's partial as soon as its edge run completes — the
// producer side of the pipelined superstep, which streams partials onto the
// wire while later slots are still gathering. The DistPartial (and its
// slices) is scratch owned by the partition, valid only during the emit call;
// emit must encode or copy, not retain. Partials arrive ascending by slot
// (so by vertex), one per contributing source. A slot for which skip (when
// not nil) reports true is not gathered: its partial is one the caller would
// discard. An emit error aborts the stream and is returned.
func (p *DistPartition) GatherStream(step DistStep, skip func(s int32) bool, emit func(s int32, dp *DistPartial) error) error {
	if step.inProcess() {
		return fmt.Errorf("%w: %v", ErrInProcessStep, step)
	}
	if step < DistTruncate || step > DistCombine {
		return fmt.Errorf("core: unknown dist step %d", int(step))
	}
	var dp DistPartial
	for s := range int32(len(p.runs)) {
		if (skip == nil || !skip(s)) && p.GatherVertex(step, s, &dp) {
			if err := emit(s, &dp); err != nil {
				return err
			}
		}
	}
	return nil
}

// GatherVertex runs step's gather for the single slot s, filling dp exactly
// as GatherStream's emit for that slot would and reporting whether it
// contributed. dp's slices alias the partition's gather scratch, valid until
// the next gather call.
//
// Called directly, it is the apply-time twin of the streaming gather: a
// replicated master, which the stream skips, gathers its own partial on
// demand instead of keeping an encoded copy across the superstep's exchange.
// Gathering after other vertices have applied is exact: apply writes only
// the step's output field, which the same step's gather never reads — the
// same property that lets GatherStream's inline applies run mid-stream. The
// slot's edge run was resolved when the job opened.
//
// The bodies are the per-edge gather kernels. Scoping is the scope masks (a
// worker holds one shard and cannot compute the global closure), and
// candidate lists are left in edge order — the applies canonicalise before
// any order could matter. Under the in-process driver each contributing edge
// is priced as it is gathered (price), and a false meter stops the gather.
func (p *DistPartition) GatherVertex(step DistStep, s int32, dp *DistPartial) bool {
	r := p.runs[s]
	if r.lo == r.hi || !p.inScope(step, s) {
		return false
	}
	cfg := &p.cfg
	sh := p.shard
	src, srcD, srcDeg := p.verts[s], &p.data[s], int(sh.Deg[p.local(s)])
	*dp = DistPartial{V: src}
	switch step {
	case DistTruncate:
		ids := p.gatherIDs[:0]
		for _, di := range sh.EdgeDst[r.lo:r.hi] {
			if dst := sh.Locals[di]; keepTruncated(cfg.Seed, src, dst, srcDeg, cfg.ThrGamma) {
				ids = append(ids, dst)
				if !p.price(4) {
					break
				}
			}
		}
		p.gatherIDs, dp.Nbrs = ids, ids
		return len(ids) > 0
	case DistRelays:
		sims := p.gatherSims[:0]
		for k, di := range sh.EdgeDst[r.lo:r.hi] {
			sims = append(sims, VertexSim{
				V:   sh.Locals[di],
				Sim: cfg.Score.Sim.Score(srcD.Nbrs, p.dstData(r, k).Nbrs, srcDeg, int(sh.Deg[di])),
			})
			if !p.price(12) {
				break
			}
		}
		p.gatherSims, dp.Sims = sims, sims
		return true // every edge contributes a similarity, and the run is not empty
	default:
		cands := p.gatherCands[:0]
		for k, di := range sh.EdgeDst[r.lo:r.hi] {
			n := len(cands)
			cands = appendCombine(cfg.Score.Comb, cands, src, sh.Locals[di], srcD, p.dstData(r, k))
			if p.meter != nil && len(cands) > n && !p.meter(p.candBytes(cands[n:])) {
				break
			}
		}
		p.gatherCands, dp.Cands = cands, cands
		return len(cands) > 0
	}
}

// Apply runs step's sum+apply phase for slot s, mastered on this partition:
// it folds parts — the local partial plus any partials received from other
// partitions, in any order — and updates s's replica, which
// becomes the authoritative copy to broadcast. parts may be empty (no edge
// anywhere contributed); apply still runs, clearing the step's output field
// exactly as an empty gather does on every scheduler.
func (p *DistPartition) Apply(step DistStep, s int32, parts []DistPartial) error {
	v, d := p.verts[s], &p.data[s]
	// A single partial (the streaming session's pre-merged case) skips the
	// concatenation alloc and feeds its slices to the apply directly; step 2's
	// apply sorts in place, which may reorder the caller's slice — harmless,
	// callers hand over scratch or routing copies.
	switch step {
	case DistTruncate:
		d.Nbrs = p.s.applyTruncate(concat(parts, func(dp *DistPartial) []graph.VertexID { return dp.Nbrs }))
	case DistRelays:
		d.Sims = p.s.applyRelays(&p.cfg, v, concat(parts, func(dp *DistPartial) []VertexSim { return dp.Sims }))
	case DistCombine:
		d.Pred = p.s.applyCombine(&p.cfg, v, concat(parts, func(dp *DistPartial) []PathCand { return dp.Cands }), nil)
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

package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"snaple/internal/cluster"
	"snaple/internal/gas"
	"snaple/internal/graph"
	"snaple/internal/partition"
	"snaple/internal/randx"
	"snaple/internal/topk"
)

// VertexSim pairs a neighbour with its raw similarity (one entry of the
// Du.sims dictionary of Algorithm 2).
type VertexSim struct {
	V   graph.VertexID
	Sim float64
}

// VData is the per-vertex GAS state of Algorithm 2: the (truncated)
// neighbourhood Γ̂, the k_local most similar neighbours, and the final
// predictions. TwoHop is only populated by the 3-hop extension (khop.go).
// It is exported because the dist backend ships it between worker processes
// during master→mirror refreshes (internal/wire encodes it as a state record).
type VData struct {
	Nbrs   []graph.VertexID // Γ̂(u), sorted ascending
	Sims   []VertexSim      // selected relays, sorted by V ascending
	TwoHop []PathCand       // sampled 2-hop paths (3-hop extension only)
	Pred   []Prediction     // final top-k, best first
}

// vdataBytes prices a vertex state for synchronisation and memory
// accounting: 4 B per neighbour ID, 12 B per (id, float64) similarity entry,
// 12 B per path/prediction entry, plus a fixed header.
func vdataBytes(v *VData) int64 {
	return 24 + 4*int64(len(v.Nbrs)) + 12*int64(len(v.Sims)) +
		12*int64(len(v.TwoHop)) + 12*int64(len(v.Pred))
}

// snapleState is shared by the three step programs.
type snapleState struct {
	cfg Config
	deg []int32 // full out-degrees, static topology metadata
	// frontier is the query scope of the run. It is set by
	// PredictGASWorkers for scoped sim runs (the step programs gate their
	// gathers on it) and stays nil on dist workers, whose partitions gate
	// by the shipped per-local scope masks instead (diststep.go) — a worker
	// holds only a partition and cannot compute the global closure.
	frontier *Frontier
}

func newSnapleState(g graph.View, cfg Config) *snapleState {
	deg := make([]int32, g.NumVertices())
	for u := 0; u < g.NumVertices(); u++ {
		deg[u] = int32(g.OutDegree(graph.VertexID(u)))
	}
	return &snapleState{cfg: cfg, deg: deg}
}

// ---- Step 1: sample the neighbourhood Du.Γ̂ (Algorithm 2, lines 1-6) ----

type step1 struct{ *snapleState }

// Direction implements gas.Program.
func (step1) Direction() gas.Direction { return gas.Out }

// Gather emits {v}, or nothing when the truncation draw rejects the edge
// (or, on a scoped run, when src's neighbourhood is outside the closure).
func (s step1) Gather(src, dst graph.VertexID, _, _ *VData, _ *struct{}) ([]graph.VertexID, bool) {
	if !s.frontier.InTrunc(src) {
		return nil, false
	}
	if !keepTruncated(s.cfg.Seed, src, dst, int(s.deg[src]), s.cfg.ThrGamma) {
		return nil, false
	}
	return []graph.VertexID{dst}, true
}

// Sum unions neighbour samples (set union over disjoint contributions).
func (step1) Sum(a, b []graph.VertexID) []graph.VertexID { return append(a, b...) }

// Apply stores the sorted sample as Γ̂.
func (step1) Apply(_ graph.VertexID, d *VData, sum []graph.VertexID, has bool) {
	if !has {
		d.Nbrs = nil
		return
	}
	nbrs := append([]graph.VertexID(nil), sum...)
	slices.Sort(nbrs)
	d.Nbrs = nbrs
}

// VertexBytes implements gas.Program.
func (step1) VertexBytes(v *VData) int64 { return vdataBytes(v) }

// GatherBytes implements gas.Program.
func (step1) GatherBytes(g []graph.VertexID) int64 { return 4 * int64(len(g)) }

// ---- Step 2: estimate similarities, keep k_local relays (lines 7-11) ----

type step2 struct{ *snapleState }

// Direction implements gas.Program.
func (step2) Direction() gas.Direction { return gas.Out }

// Gather emits (v, sim(u,v)) computed on the truncated neighbourhoods (and
// vertex attributes, for identity-aware metrics).
func (s step2) Gather(src, dst graph.VertexID, srcD, dstD *VData, _ *struct{}) ([]VertexSim, bool) {
	if !s.frontier.InSims(src) {
		return nil, false
	}
	sim := simScore(s.cfg.Score.Sim, src, dst, srcD.Nbrs, dstD.Nbrs, int(s.deg[src]), int(s.deg[dst]))
	return []VertexSim{{V: dst, Sim: sim}}, true
}

// Sum concatenates similarity entries (keys are distinct neighbours).
func (step2) Sum(a, b []VertexSim) []VertexSim { return append(a, b...) }

// Apply selects the k_local relays under the configured policy and stores
// them sorted by vertex for step 3's binary searches.
func (s step2) Apply(u graph.VertexID, d *VData, sum []VertexSim, has bool) {
	if !has {
		d.Sims = nil
		return
	}
	d.Sims = selectRelays(s.cfg, u, sum)
}

// VertexBytes implements gas.Program.
func (step2) VertexBytes(v *VData) int64 { return vdataBytes(v) }

// GatherBytes implements gas.Program.
func (step2) GatherBytes(g []VertexSim) int64 { return 12 * int64(len(g)) }

// selectRelays applies the selection policy (Γmax/Γmin/Γrnd as of Section
// 5.6) to the (v, sim) candidates and returns them sorted by vertex ID.
func selectRelays(cfg Config, u graph.VertexID, cands []VertexSim) []VertexSim {
	if cfg.KLocal == Unlimited || len(cands) <= cfg.KLocal {
		out := append([]VertexSim(nil), cands...)
		slices.SortFunc(out, func(a, b VertexSim) int { return cmp.Compare(a.V, b.V) })
		return out
	}
	items := make([]topk.Item, len(cands))
	switch cfg.Policy {
	case SelectMin, SelectMax:
		for i, c := range cands {
			items[i] = topk.Item{ID: uint32(c.V), Score: c.Sim}
		}
	case SelectRnd:
		// Rank by a hash keyed by (seed, u, v): a deterministic uniform
		// sample independent of discovery order.
		for i, c := range cands {
			items[i] = topk.Item{
				ID:    uint32(c.V),
				Score: randx.Float64(cfg.Seed^rndSelSalt, uint64(u), uint64(c.V)),
			}
		}
	}
	var sel []topk.Item
	if cfg.Policy == SelectMin {
		sel = topk.Bottom(cfg.KLocal, items)
	} else {
		sel = topk.Select(cfg.KLocal, items)
	}
	// Winners are distinct vertices: membership is a binary search over the
	// sorted ID list instead of a per-vertex map (this runs once per vertex
	// per superstep — the map was the dist workers' top allocation site).
	ids := make([]graph.VertexID, len(sel))
	for i, it := range sel {
		ids[i] = graph.VertexID(it.ID)
	}
	slices.Sort(ids)
	out := make([]VertexSim, 0, len(sel))
	for _, c := range cands {
		if containsVertex(ids, c.V) {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(a, b VertexSim) int { return cmp.Compare(a.V, b.V) })
	return out
}

// ---- Step 3: combine and aggregate path similarities (lines 12-20) ----

// Gather lists use the PathCand type of steps.go, kept sorted by Z so that
// Sum is a linear merge and Apply sees per-candidate groups contiguously.

type step3 struct{ *snapleState }

// Direction implements gas.Program.
func (step3) Direction() gas.Direction { return gas.Out }

// Gather walks the relay v's own relays z and emits one path-candidate per
// kept 2-hop path u→v→z (Algorithm 2, lines 13-15).
func (s step3) Gather(src, dst graph.VertexID, srcD, dstD *VData, _ *struct{}) ([]PathCand, bool) {
	if !s.frontier.InPred(src) {
		return nil, false
	}
	out := s.appendCombine(nil, src, dst, srcD, dstD)
	return out, len(out) > 0
}

// appendCombine is step 3's gather kernel, shared by the sim backend's step
// program above and the wire worker's streaming gather (diststep.go): it
// appends the candidates edge (src, dst) contributes — one per relay z of the
// relay dst, ascending by Z — and nothing when dst is not one of src's relays.
func (s *snapleState) appendCombine(out []PathCand, src, dst graph.VertexID, srcD, dstD *VData) []PathCand {
	suv, ok := lookupSim(srcD.Sims, dst)
	if !ok { // v ∉ Du.sims.keys (line 13)
		return out
	}
	out = slices.Grow(out, len(dstD.Sims))
	return s.appendRelayPaths(out, suv, src, srcD.Nbrs, dstD.Sims)
}

// appendRelayPaths is the loop all three candidate kernels share: one path
// src→v→z per relay z of v, valued suv ⊗ sim(v,z), skipping src itself and
// anything in the sorted exclusion list (Γ̂(src) for the final steps, line
// 15's exclusion; nil for step 3a, which keeps every path). relays ascend by
// V, so the appended run ascends by Z.
func (s *snapleState) appendRelayPaths(out []PathCand, suv float64, src graph.VertexID, excluded []graph.VertexID, relays []VertexSim) []PathCand {
	comb := s.cfg.Score.Comb.Fn
	for _, zs := range relays {
		if zs.V == src || containsVertex(excluded, zs.V) {
			continue
		}
		out = append(out, PathCand{Z: zs.V, S: comb(suv, zs.Sim)})
	}
	return out
}

// Sum merges two candidate lists sorted by Z, preserving order. Path values
// for the same candidate stay adjacent; they are folded in Apply (sorted
// first, so the result is independent of merge order — see
// Aggregator.FoldPaths).
func (step3) Sum(a, b []PathCand) []PathCand {
	out := make([]PathCand, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Z <= b[j].Z {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Apply groups path candidates by Z, folds each group with the aggregator
// (⊕pre then ⊕post, line 19) and keeps the top-k scores (line 20). The
// grouping and fold are shared with every other substrate (steps.go).
func (s step3) Apply(_ graph.VertexID, d *VData, sum []PathCand, has bool) {
	if !has {
		d.Pred = nil
		return
	}
	d.Pred = foldSortedPathCands(sum, s.cfg.Score.Agg, s.cfg.K)
}

// VertexBytes implements gas.Program.
func (step3) VertexBytes(v *VData) int64 { return vdataBytes(v) }

// GatherBytes prices a partial sum the way the paper's implementation ships
// it: one (z, σ, n) triplet (16 B) per distinct candidate, since ⊕pre could
// fold each group before transmission. (The in-memory per-path list is a
// determinism device; see Aggregator.FoldPaths.)
func (step3) GatherBytes(g []PathCand) int64 {
	distinct := 0
	for i := range g {
		if i == 0 || g[i].Z != g[i-1].Z {
			distinct++
		}
	}
	return 16 * int64(distinct)
}

// lookupSim binary-searches a V-sorted similarity list.
func lookupSim(sims []VertexSim, v graph.VertexID) (float64, bool) {
	i := sort.Search(len(sims), func(i int) bool { return sims[i].V >= v })
	if i < len(sims) && sims[i].V == v {
		return sims[i].Sim, true
	}
	return 0, false
}

// containsVertex binary-searches a sorted vertex list.
func containsVertex(nbrs []graph.VertexID, v graph.VertexID) bool {
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
}

// ---- Driver ----

// Result carries the predictions of a distributed run plus its costs.
type Result struct {
	Pred Predictions
	// Steps holds the per-superstep engine statistics (one entry per
	// superstep that ran; a scoped run may skip workless supersteps).
	Steps []gas.StepStats
	// Total aggregates Steps.
	Total gas.StepStats
	// ReplicationFactor of the distributed graph.
	ReplicationFactor float64
	// FrontierVertices is the query closure's vertex count on a scoped run
	// (Config.Sources non-empty); 0 on a full run.
	FrontierVertices int
	// ScoredVertices is how many vertices the final combine step visited:
	// the deduplicated source count on a scoped run, NumVertices on a full
	// run.
	ScoredVertices int
}

// PredictGAS runs Algorithm 2 on g distributed over cl according to assign,
// and returns the per-vertex predictions. This is the paper's SNAPLE system.
// It processes partitions on up to GOMAXPROCS goroutines; use
// PredictGASWorkers to bound the concurrency explicitly.
func PredictGAS(g graph.View, assign partition.Assignment, cl *cluster.Cluster, cfg Config) (*Result, error) {
	return PredictGASWorkers(g, assign, cl, cfg, 0)
}

// PredictGASWorkers is PredictGAS with an explicit bound on the number of
// partitions processed concurrently (0 = GOMAXPROCS). The worker count only
// affects host wall-clock time, never the predictions or the simulated
// costs.
func PredictGASWorkers(g graph.View, assign partition.Assignment, cl *cluster.Cluster, cfg Config, workers int) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dg, err := gas.Distribute[VData, struct{}](g, assign, cl, gas.Options{Seed: cfg.Seed, Workers: workers})
	if err != nil {
		return nil, err
	}
	st := newSnapleState(g, cfg)
	st.frontier, err = NewFrontier(g, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ReplicationFactor: dg.ReplicationFactor(),
		FrontierVertices:  st.frontier.Size(),
		ScoredVertices:    g.NumVertices(),
	}
	if st.frontier != nil {
		res.ScoredVertices = st.frontier.Pred.Len()
	}

	// A scoped superstep whose frontier set has no out-edges gathers
	// nothing on any partition and applies nil state everywhere — skipping
	// it produces the same (zero) state for free (see Frontier.StepHasWork).
	skip := func(step DistStep) bool { return !st.frontier.StepHasWork(step, st.deg) }

	if !skip(DistTruncate) {
		s1, err := gas.RunStep[VData, struct{}, []graph.VertexID](dg, step1{st})
		res.record(s1)
		if err != nil {
			return res, fmt.Errorf("snaple step 1: %w", err)
		}
	}
	if !skip(DistRelays) {
		s2, err := gas.RunStep[VData, struct{}, []VertexSim](dg, step2{st})
		res.record(s2)
		if err != nil {
			return res, fmt.Errorf("snaple step 2: %w", err)
		}
	}
	if cfg.Paths == 3 {
		// The footnote-2 extension: materialise 2-hop path lists, then
		// aggregate 2- and 3-hop paths together (khop.go).
		if !skip(DistTwoHop) {
			s3a, err := gas.RunStep[VData, struct{}, []PathCand](dg, step3a{st})
			res.record(s3a)
			if err != nil {
				return res, fmt.Errorf("snaple step 3a: %w", err)
			}
		}
		if !skip(DistCombine3) {
			s3b, err := gas.RunStep[VData, struct{}, []PathCand](dg, step3b{st})
			res.record(s3b)
			if err != nil {
				return res, fmt.Errorf("snaple step 3b: %w", err)
			}
		}
	} else if !skip(DistCombine) {
		s3, err := gas.RunStep[VData, struct{}, []PathCand](dg, step3{st})
		res.record(s3)
		if err != nil {
			return res, fmt.Errorf("snaple step 3: %w", err)
		}
	}

	res.Pred = make(Predictions, g.NumVertices())
	dg.ForEachMaster(func(v graph.VertexID, d *VData) {
		if len(d.Pred) > 0 {
			res.Pred[v] = d.Pred
		}
	})
	return res, nil
}

func (r *Result) record(st gas.StepStats) {
	r.Steps = append(r.Steps, st)
	r.Total.Add(st)
}

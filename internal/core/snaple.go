package core

import (
	"fmt"

	"snaple/internal/cluster"
	"snaple/internal/gas"
	"snaple/internal/graph"
	"snaple/internal/partition"
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

// The GAS step programs below are sim's scheduler of the kernels in
// steps.go: each Gather is a per-edge kernel call, each Apply a per-master
// one. They hold the run's StepRunner for its configuration, its frontier
// (scoped runs gate every gather on it) and its degrees, read from the view.

// ---- Step 1: sample the neighbourhood Du.Γ̂ (Algorithm 2, lines 1-6) ----

type step1 struct{ r *StepRunner }

// Gather emits {v}, or nothing when the truncation draw rejects the edge
// (or, on a scoped run, when src's neighbourhood is outside the closure).
func (p step1) Gather(src, dst graph.VertexID, _, _ *VData) ([]graph.VertexID, bool) {
	cfg := &p.r.cfg
	if !p.r.frontier.InTrunc(src) || !keepTruncated(cfg.Seed, src, dst, p.r.degree(src), cfg.ThrGamma) {
		return nil, false
	}
	return []graph.VertexID{dst}, true
}

// Sum unions neighbour samples (set union over disjoint contributions).
func (step1) Sum(a, b []graph.VertexID) []graph.VertexID { return append(a, b...) }

// Apply implements gas.Program (applyTruncate).
func (step1) Apply(_ graph.VertexID, d *VData, sum []graph.VertexID, _ bool) {
	d.Nbrs = applyTruncate(sum)
}

// VertexBytes implements gas.Program.
func (step1) VertexBytes(v *VData) int64 { return vdataBytes(v) }

// GatherBytes implements gas.Program.
func (step1) GatherBytes(g []graph.VertexID) int64 { return 4 * int64(len(g)) }

// ---- Step 2: estimate similarities, keep k_local relays (lines 7-11) ----

type step2 struct{ r *StepRunner }

// Gather emits (v, sim(u,v)) computed on the truncated neighbourhoods.
func (p step2) Gather(src, dst graph.VertexID, srcD, dstD *VData) ([]VertexSim, bool) {
	if !p.r.frontier.InSims(src) {
		return nil, false
	}
	sim := p.r.cfg.Score.Sim.Score(srcD.Nbrs, dstD.Nbrs, p.r.degree(src), p.r.degree(dst))
	return []VertexSim{{V: dst, Sim: sim}}, true
}

// Sum concatenates similarity entries (keys are distinct neighbours).
func (step2) Sum(a, b []VertexSim) []VertexSim { return append(a, b...) }

// Apply implements gas.Program (applyRelays). Partitions apply concurrently,
// so each call brings its own scratch.
func (p step2) Apply(u graph.VertexID, d *VData, sum []VertexSim, _ bool) {
	var s Scratch
	d.Sims = s.applyRelays(&p.r.cfg, u, sum)
}

// VertexBytes implements gas.Program.
func (step2) VertexBytes(v *VData) int64 { return vdataBytes(v) }

// GatherBytes implements gas.Program.
func (step2) GatherBytes(g []VertexSim) int64 { return 12 * int64(len(g)) }

// ---- Step 3: combine and aggregate path similarities (lines 12-20) ----

// Gather lists use the PathCand type of steps.go, kept sorted by Z so that
// Sum is a linear merge and GatherBytes prices a partial per distinct
// candidate. Apply would merge any concatenation of ascending runs.

type step3 struct{ r *StepRunner }

// Gather emits one path-candidate per kept 2-hop path u→v→z through the
// relay v (Algorithm 2, lines 13-15; appendCombine).
func (p step3) Gather(src, dst graph.VertexID, srcD, dstD *VData) ([]PathCand, bool) {
	if !p.r.frontier.InPred(src) {
		return nil, false
	}
	out := appendCombine(p.r.cfg.Score.Comb, nil, src, dst, srcD, dstD)
	return out, len(out) > 0
}

// Sum merges two candidate lists sorted by Z, preserving order. Path values
// for the same candidate stay adjacent; they are folded in Apply, whose fold
// is independent of their order (see Aggregator.FoldPaths).
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

// Apply implements gas.Program (applyCombine).
func (p step3) Apply(u graph.VertexID, d *VData, sum []PathCand, _ bool) {
	var s Scratch
	d.Pred = s.applyCombine(&p.r.cfg, u, sum, nil)
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
	dg, err := gas.Distribute[VData](g, assign, cl, gas.Options{Seed: cfg.Seed, Workers: workers})
	if err != nil {
		return nil, err
	}
	r, err := NewStepRunner(g, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ReplicationFactor: dg.ReplicationFactor(),
		FrontierVertices:  r.frontier.Size(),
		ScoredVertices:    g.NumVertices(),
	}
	if r.frontier != nil {
		res.ScoredVertices = r.frontier.Pred.Len()
	}

	// A scoped superstep whose frontier set has no out-edges gathers
	// nothing on any partition and applies nil state everywhere — skipping
	// it produces the same (zero) state for free (see Frontier.StepHasWork).
	skip := func(step DistStep) bool { return !r.frontier.StepHasWork(step, g) }

	if !skip(DistTruncate) {
		s1, err := gas.RunStep[VData, []graph.VertexID](dg, step1{r})
		res.record(s1)
		if err != nil {
			return res, fmt.Errorf("snaple step 1: %w", err)
		}
	}
	if !skip(DistRelays) {
		s2, err := gas.RunStep[VData, []VertexSim](dg, step2{r})
		res.record(s2)
		if err != nil {
			return res, fmt.Errorf("snaple step 2: %w", err)
		}
	}
	if cfg.Paths == 3 {
		// The footnote-2 extension: materialise 2-hop path lists, then
		// aggregate 2- and 3-hop paths together (khop.go).
		if !skip(DistTwoHop) {
			s3a, err := gas.RunStep[VData, []PathCand](dg, step3a{r})
			res.record(s3a)
			if err != nil {
				return res, fmt.Errorf("snaple step 3a: %w", err)
			}
		}
		if !skip(DistCombine3) {
			s3b, err := gas.RunStep[VData, []PathCand](dg, step3b{r})
			res.record(s3b)
			if err != nil {
				return res, fmt.Errorf("snaple step 3b: %w", err)
			}
		}
	} else if !skip(DistCombine) {
		s3, err := gas.RunStep[VData, []PathCand](dg, step3{r})
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

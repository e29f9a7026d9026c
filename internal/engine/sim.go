package engine

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"snaple/internal/cluster"
	"snaple/internal/core"
	"snaple/internal/graph"
	"snaple/internal/partition"
)

// Sim is the paper's system as a Backend: Algorithm 2's supersteps over a
// simulated cluster, with vertex-cut partitioning, master/mirror replication
// and full cost accounting. It drives the fleet's scheduler, one
// core.DistPartition per shard of the cut, in process: partials and
// refreshes are handed over in memory, and what would cross a node is
// charged to the cluster accountant by the paper's cost model instead of
// measured on a socket. Use it when the simulated costs (SimSeconds,
// CrossBytes, MemPeakBytes, ReplicationFactor) matter; use Local when only
// the predictions do.
//
// The zero value of every field is a usable default: one type-II node, one
// partition per core, hash-edge vertex-cut keyed by Seed.
type Sim struct {
	// Nodes is the number of cluster nodes (0 = 1).
	Nodes int
	// Spec is the machine class (zero = cluster.TypeII()).
	Spec cluster.NodeSpec
	// Partitions overrides the partition count (0 = one per core).
	Partitions int
	// Strategy selects the vertex-cut (nil = partition.HashEdge{Seed}).
	Strategy partition.Strategy
	// MemBudgetBytes optionally caps per-node memory (0 = the node spec's
	// capacity). Exceeding it aborts with cluster.ErrMemoryExhausted.
	MemBudgetBytes int64
	// Seed drives partitioning.
	Seed uint64
	// Workers bounds the host goroutines processing partitions
	// (0 = GOMAXPROCS). It never affects results or simulated costs.
	Workers int
}

// Name implements Backend.
func (Sim) Name() string { return "sim" }

// Predict implements Backend. Masters are elected with cfg.Seed. On a
// failure before any superstep ran (bad config, deployment error) the
// returned Stats is the zero value; on a mid-run failure (memory exhaustion)
// it carries the partial costs.
func (s Sim) Predict(g graph.View, cfg core.Config) (core.Predictions, Stats, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, Stats{}, err // fail before the partitioning pass
	}
	f, err := core.NewFrontier(g, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	r, err := s.open(g, cfg.Seed, func(sh *graph.ShardFile) (*core.DistPartition, error) {
		if f == nil {
			return core.NewDistPartition(cfg, sh)
		}
		// Every local keeps its slot, so the cut prices every mirror
		// refresh; the masks scope the gathers to the closure.
		masks := make([]uint8, len(sh.Locals))
		for i, v := range sh.Locals {
			masks[i] = f.ScopeMask(v)
		}
		return core.NewScopedDistPartition(cfg, sh, sh.Locals, masks)
	})
	if err != nil {
		return nil, Stats{}, err
	}
	r.st.ScoredVertices = g.NumVertices()
	if f != nil {
		r.st.FrontierVertices, r.st.ScoredVertices = f.Size(), f.Pred.Len()
	}
	// A scoped superstep whose frontier set has no out-edges gathers nothing
	// anywhere and applies nil state: skipping it is free.
	return r.run("snaple", core.DistSteps(), func(step core.DistStep) bool { return f.StepHasWork(step, g) })
}

// PredictBaseline runs the BASELINE comparison system (core.BaselineSteps)
// for the top k of every vertex on the simulated cluster, masters elected
// with seed 0. On large graphs with bounded node memory it fails with an
// error wrapping cluster.ErrMemoryExhausted, reproducing the paper's "naive
// GraphLab version fails due to resource exhaustion", and the Stats carry
// the costs up to the failing step.
func (s Sim) PredictBaseline(g graph.View, k int) (core.Predictions, Stats, error) {
	if k < 1 {
		return nil, Stats{}, fmt.Errorf("engine: baseline k=%d, need >= 1", k)
	}
	r, err := s.open(g, 0, func(sh *graph.ShardFile) (*core.DistPartition, error) {
		return core.NewBaselinePartition(k, sh)
	})
	if err != nil {
		return nil, Stats{}, err
	}
	return r.run("baseline", core.BaselineSteps(), func(core.DistStep) bool { return true })
}

// simRun is one run's cut, its partitions and the simulated cluster they
// are charged to.
type simRun struct {
	cl      *cluster.Cluster
	cut     *partition.Cut
	parts   []*core.DistPartition
	master  [][]simRef // per partition and slot: where its vertex's master copy is
	charged []int64    // per partition: vertex state charged to its node
	workers int
	st      Stats
}

// simRef locates a vertex's copy: a partition and its slot there.
type simRef struct{ part, slot int32 }

// open cuts g for the deployment, electing masters with seed, derives each
// shard's run-offset column, and opens one partition per shard.
func (s Sim) open(g graph.View, seed uint64, open func(*graph.ShardFile) (*core.DistPartition, error)) (*simRun, error) {
	s.Nodes = cmp.Or(s.Nodes, 1)
	if s.Spec.Cores == 0 {
		s.Spec = cluster.TypeII()
	}
	s.Partitions = cmp.Or(s.Partitions, s.Nodes*s.Spec.Cores)
	if s.Strategy == nil {
		s.Strategy = partition.HashEdge{Seed: s.Seed}
	}
	if s.Workers <= 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	assign, err := s.Strategy.Partition(g, s.Partitions)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cluster.Config{Nodes: s.Nodes, Spec: s.Spec, MemBudgetBytes: s.MemBudgetBytes}, s.Partitions)
	if err != nil {
		return nil, err
	}
	cut, err := partition.NewCut(g, assign, seed)
	if err != nil {
		return nil, err
	}
	for _, sh := range cut.Shards {
		if err := sh.IndexRuns(); err != nil {
			return nil, err
		}
	}
	r := &simRun{cl: cl, cut: cut, charged: make([]int64, len(cut.Shards)), workers: s.Workers,
		st: Stats{Engine: "sim", Workers: s.Workers, ReplicationFactor: cut.ReplicationFactor()}}
	for _, sh := range cut.Shards {
		pt, err := open(sh)
		if err != nil {
			return nil, err
		}
		r.parts = append(r.parts, pt)
		r.master = append(r.master, make([]simRef, len(sh.Locals)))
	}
	for p, sh := range cut.Shards {
		for li, role := range sh.Roles {
			if role&graph.RoleMaster != 0 {
				hosts, locals := cut.Replicas(sh.Locals[li])
				for k, h := range hosts {
					r.master[h][locals[k]] = simRef{int32(p), int32(li)}
				}
			}
		}
	}
	return r, nil
}

// run executes the steps that have work, then collects every master's top-k
// into the dense table.
func (r *simRun) run(system string, steps []core.DistStep, hasWork func(core.DistStep) bool) (core.Predictions, Stats, error) {
	for _, step := range steps {
		if !hasWork(step) {
			continue
		}
		if err := r.step(step); err != nil {
			return nil, r.st, fmt.Errorf("%s step %v: %w", system, step, err)
		}
	}
	pred := make(core.Predictions, r.cut.NumVertices())
	for p, sh := range r.cut.Shards {
		for li, role := range sh.Roles {
			if d := r.parts[p].Data(int32(li)); role&graph.RoleMaster != 0 && len(d.Pred) > 0 {
				pred[sh.Locals[li]] = d.Pred
			}
		}
	}
	return pred, r.st, nil
}

// flushChunk batches the memory charges of one partition's phase: a budget
// overrun aborts every partition's loop within a chunk of it, so BASELINE's
// neighbourhood shipping fails right where GraphLab ran out of memory, and
// the simulated failure never exhausts the host for real.
const flushChunk = 64 << 10

// meter charges one partition's node incrementally, flushChunk bytes at a
// time, and raises its phase's shared abort flag on an overrun.
type meter struct {
	cl               *cluster.Cluster
	p                int
	pending, charged int64
	err              error
	aborted          *atomic.Bool
}

// meters returns one meter per partition, sharing aborted.
func (r *simRun) meters(aborted *atomic.Bool) []meter {
	ms := make([]meter, len(r.parts))
	for p := range ms {
		ms[p] = meter{cl: r.cl, p: p, aborted: aborted}
	}
	return ms
}

// add charges b more bytes and reports whether the phase may go on.
func (m *meter) add(b int64) bool {
	if m.pending += b; m.pending >= flushChunk {
		m.flush()
	}
	return !m.aborted.Load()
}

func (m *meter) flush() {
	if m.pending == 0 {
		return
	}
	err := m.cl.StoreMem(m.p, m.pending)
	m.charged += m.pending
	m.pending = 0
	if err != nil && m.err == nil {
		m.err = err
		m.aborted.Store(true)
	}
}

// release returns n charged bytes of partition p's node. Releasing cannot
// newly exceed a budget, so an error is an overrun that is still standing.
func (r *simRun) release(p int, n int64) error {
	if n == 0 {
		return nil
	}
	return r.cl.StoreMem(p, -n)
}

// step runs one superstep in the three bulk-synchronous phases of the GAS
// model, and adds its costs to the run's Stats:
//
//	gather    — every partition gathers its slots' partials and holds them,
//	            their bytes charged to its node as they accrue;
//	sum+apply — each master folds its vertex's partials in ascending
//	            partition order, each one held on another partition charged
//	            as a transfer;
//	refresh   — mirrors copy their master's state, each copy charged as a
//	            transfer and every replica's state to its node.
//
// The gather state is released at the end of the step; the vertex state
// stays charged until the next refresh replaces it. On memory exhaustion it
// returns an error wrapping cluster.ErrMemoryExhausted, and the run's state
// is unusable for further steps.
func (r *simRun) step(step core.DistStep) error {
	start, snap0 := time.Now(), r.cl.Snapshot()
	var aborted atomic.Bool
	gather := r.meters(&aborted)
	busyA := r.phase(func(p int) {
		r.parts[p].GatherHeld(step, gather[p].add)
		gather[p].flush()
	})
	if aborted.Load() {
		r.account(start, snap0)
		var err error
		for p := range gather {
			_ = r.release(p, gather[p].charged)
			err = cmp.Or(err, gather[p].err)
		}
		return fmt.Errorf("gather phase: %w", err)
	}

	errs := make([]error, len(r.parts))
	busyB := r.phase(func(p int) {
		sh, ship := r.cut.Shards[p], func(host int32, bytes int64) { r.cl.Transfer(int(host), p, bytes) }
		for li, role := range sh.Roles {
			if role&graph.RoleMaster != 0 && errs[p] == nil {
				hosts, locals := r.cut.Replicas(sh.Locals[li])
				errs[p] = r.parts[p].FoldHeld(step, int32(li), r.parts, hosts, locals, ship)
			}
		}
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	snapB := r.cl.Snapshot()

	// The refreshed vertex state is re-charged incrementally as it is
	// accounted, so replication blow-ups — BASELINE's 2-hop state times the
	// replication factor — trip the budget close to its limit instead of after
	// full materialisation. The stale charge is released up front; the
	// headroom freed is transient and the recorded peak only ever grows.
	for p, n := range r.charged {
		_ = r.release(p, n)
	}
	aborted.Store(false)
	refresh := r.meters(&aborted)
	busyC := r.phase(func(p int) {
		pt, m := r.parts[p], &refresh[p]
		for s, ref := range r.master[p] {
			if ref.part != int32(p) {
				src := r.parts[ref.part]
				r.cl.Transfer(int(ref.part), p, src.VertexBytes(ref.slot))
				pt.CopyState(int32(s), src, ref.slot)
			}
			if !m.add(pt.VertexBytes(int32(s))) {
				break
			}
		}
		m.flush()
		r.charged[p] = m.charged
	})

	var err error
	for p := range gather {
		err = cmp.Or(err, r.release(p, gather[p].charged))
		if err == nil && refresh[p].err != nil {
			err = fmt.Errorf("apply/refresh phase: %w", refresh[p].err)
		}
	}
	end := r.account(start, snap0)
	// Phases are barriers, so each is priced as its own makespan.
	r.st.SimSeconds += r.cl.ComputeSeconds(busyA) + r.cl.ComputeSeconds(busyB) + r.cl.ComputeSeconds(busyC) +
		r.cl.NetSeconds(snap0, snapB) + r.cl.NetSeconds(snapB, end)
	return err
}

// account adds a step's wall time and traffic, and the peak so far, to the
// run's Stats, and returns the accountant's state at the end of the step.
func (r *simRun) account(start time.Time, snap0 cluster.Traffic) cluster.Traffic {
	end := r.cl.Snapshot()
	r.st.WallSeconds += time.Since(start).Seconds()
	r.st.CrossBytes += end.CrossBytes - snap0.CrossBytes
	r.st.CrossMsgs += end.CrossMsgs - snap0.CrossMsgs
	r.st.MemPeakBytes = end.MaxMemPeak()
	return end
}

// phase runs fn for every partition on up to r.workers goroutines, and
// returns each one's busy seconds.
func (r *simRun) phase(fn func(p int)) []float64 {
	busy := make([]float64, len(r.parts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(r.workers, len(busy)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := int(next.Add(1) - 1); p < len(busy); p = int(next.Add(1) - 1) {
				t0 := time.Now()
				fn(p)
				busy[p] = time.Since(t0).Seconds()
			}
		}()
	}
	wg.Wait()
	return busy
}

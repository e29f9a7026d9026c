package gas

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"snaple/internal/cluster"
)

// StepStats reports one superstep's cost.
type StepStats struct {
	// WallSeconds is host wall-clock time for the step.
	WallSeconds float64
	// BusySeconds is the per-partition busy time (all phases).
	BusySeconds []float64
	// SimComputeSeconds estimates the step's compute makespan on the
	// simulated cluster (per-phase LPT bound over the configured cores).
	SimComputeSeconds float64
	// SimNetSeconds estimates the network drain time of the step's
	// cross-node traffic at the configured bandwidth.
	SimNetSeconds float64
	// CrossBytes/CrossMsgs/LocalBytes are the traffic deltas of this step.
	CrossBytes, CrossMsgs, LocalBytes int64
	// MemPeakBytes is the cluster-wide peak node memory observed so far.
	MemPeakBytes int64
}

// SimSeconds returns the simulated step latency (compute plus network).
func (s StepStats) SimSeconds() float64 { return s.SimComputeSeconds + s.SimNetSeconds }

// Add accumulates o into s (for multi-step programs).
func (s *StepStats) Add(o StepStats) {
	s.WallSeconds += o.WallSeconds
	if len(s.BusySeconds) < len(o.BusySeconds) {
		s.BusySeconds = append(s.BusySeconds, make([]float64, len(o.BusySeconds)-len(s.BusySeconds))...)
	}
	for i, b := range o.BusySeconds {
		s.BusySeconds[i] += b
	}
	s.SimComputeSeconds += o.SimComputeSeconds
	s.SimNetSeconds += o.SimNetSeconds
	s.CrossBytes += o.CrossBytes
	s.CrossMsgs += o.CrossMsgs
	s.LocalBytes += o.LocalBytes
	if o.MemPeakBytes > s.MemPeakBytes {
		s.MemPeakBytes = o.MemPeakBytes
	}
}

// runParallel executes fn(0..n-1) on up to workers goroutines.
func runParallel(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(int(i))
			}
		}()
	}
	wg.Wait()
}

// chargedVertexBytes tracks how much vertex-state memory each partition has
// already charged to the cluster, so successive steps charge only deltas.
// It lives on the DistGraph but is engine-private.
type memLedger struct {
	chargedVert []int64
}

func (dg *DistGraph[V]) ledger() *memLedger {
	if dg.mem == nil {
		dg.mem = &memLedger{chargedVert: make([]int64, len(dg.parts))}
	}
	return dg.mem
}

// RunStep executes one GAS superstep of prog over dg. On memory exhaustion
// it returns the stats so far and an error wrapping
// cluster.ErrMemoryExhausted; the distributed state is then unusable for
// further steps.
func RunStep[V, G any](dg *DistGraph[V], prog Program[V, G]) (StepStats, error) {
	start := time.Now()
	cl := dg.cl
	nparts := len(dg.parts)
	led := dg.ledger()

	snap0 := cl.Snapshot()
	busy := make([]float64, nparts)
	busyA := make([]float64, nparts)
	busyB := make([]float64, nparts)
	busyC := make([]float64, nparts)

	// ---- Phase A: local partial gathers. ----
	//
	// Gather state is charged to the node budgets *incrementally* (in
	// flushChunk batches) and a budget overrun aborts every partition's
	// loop via a shared flag. BASELINE's neighbourhood shipping blows up
	// right here — where GraphLab ran out of memory too — and the early
	// abort keeps the simulated failure from exhausting the host for real.
	const flushChunk = 64 << 10
	partials := make([][]G, nparts)
	has := make([][]bool, nparts)
	gatherCharged := make([]int64, nparts)
	gatherErrs := make([]error, nparts)
	var aborted atomic.Bool
	runParallel(dg.workers, nparts, func(p int) {
		t0 := time.Now()
		pt := dg.parts[p]
		partial := make([]G, len(pt.Locals))
		hs := make([]bool, len(pt.Locals))
		var pending int64
		flush := func() bool {
			if pending == 0 {
				return true
			}
			err := cl.StoreMem(p, pending)
			gatherCharged[p] += pending
			pending = 0
			if err != nil {
				gatherErrs[p] = err
				aborted.Store(true)
				return false
			}
			return true
		}
		for i, si := range pt.EdgeSrc {
			if aborted.Load() {
				break
			}
			di := pt.EdgeDst[i]
			gval, ok := prog.Gather(pt.Locals[si], pt.Locals[di], &pt.data[si], &pt.data[di])
			if !ok {
				continue
			}
			pending += prog.GatherBytes(gval)
			if !hs[si] {
				partial[si], hs[si] = gval, true
			} else {
				partial[si] = prog.Sum(partial[si], gval)
			}
			if pending >= flushChunk && !flush() {
				break
			}
		}
		flush()
		partials[p], has[p] = partial, hs
		busyA[p] = time.Since(t0).Seconds()
	})
	if aborted.Load() {
		st := dg.finishStats(start, snap0, busy, busyA, busyB, busyC)
		// Release the partially charged gather state before reporting.
		for p := 0; p < nparts; p++ {
			if gatherCharged[p] > 0 {
				_ = clStoreRelease(cl, p, gatherCharged[p])
			}
		}
		for p := 0; p < nparts; p++ {
			if gatherErrs[p] != nil {
				return st, fmt.Errorf("gather phase: %w", gatherErrs[p])
			}
		}
		return st, fmt.Errorf("gather phase: aborted without recorded cause")
	}

	// ---- Phase B: masters collect partials, sum, apply. ----
	//
	// A master collects from its vertex's hosts in ascending partition
	// order; has already skips the replicas that produced no partial.
	runParallel(dg.workers, nparts, func(p int) {
		t0 := time.Now()
		pt := dg.parts[p]
		for li, isM := range pt.IsMaster {
			if !isM {
				continue
			}
			hosts, locals := dg.cut.Replicas(pt.Locals[li])
			var acc G
			have := false
			for k, r := range hosts {
				if !has[r][locals[k]] {
					continue
				}
				contrib := partials[r][locals[k]]
				if int(r) != p {
					cl.Transfer(int(r), p, prog.GatherBytes(contrib))
				}
				if !have {
					acc, have = contrib, true
				} else {
					acc = prog.Sum(acc, contrib)
				}
			}
			prog.Apply(pt.Locals[li], &pt.data[li], acc, have)
		}
		busyB[p] = time.Since(t0).Seconds()
	})
	snapB := cl.Snapshot()

	// ---- Phase C: mirrors pull refreshed vertex data. ----
	//
	// The refreshed vertex state (masters' apply output plus every mirror
	// copy) is re-charged incrementally as it is accounted, so replication
	// blow-ups — BASELINE's 2-hop state times the replication factor — trip
	// the budget close to its limit instead of after full materialisation.
	// The stale charge is released up front; the budget headroom freed is
	// transient and the recorded peak only ever grows.
	for p := 0; p < nparts; p++ {
		_ = clStoreRelease(cl, p, led.chargedVert[p])
		led.chargedVert[p] = 0
	}
	vertErrs := make([]error, nparts)
	aborted.Store(false)
	runParallel(dg.workers, nparts, func(p int) {
		t0 := time.Now()
		pt := dg.parts[p]
		var pending int64
		flush := func() bool {
			if pending == 0 {
				return true
			}
			err := cl.StoreMem(p, pending)
			led.chargedVert[p] += pending
			pending = 0
			if err != nil {
				vertErrs[p] = err
				aborted.Store(true)
				return false
			}
			return true
		}
		for li := range pt.Locals {
			if aborted.Load() {
				break
			}
			m := pt.master[li]
			if int(m.part) != p {
				src := &dg.parts[m.part].data[m.idx]
				cl.Transfer(int(m.part), p, prog.VertexBytes(src))
				pt.data[li] = *src
			}
			pending += prog.VertexBytes(&pt.data[li])
			if pending >= flushChunk && !flush() {
				break
			}
		}
		flush()
		busyC[p] = time.Since(t0).Seconds()
	})

	// Release the gather state (exactly what phase A charged) and surface
	// any broadcast-phase exhaustion.
	var memErr error
	for p := 0; p < nparts; p++ {
		if err := clStoreRelease(cl, p, gatherCharged[p]); err != nil && memErr == nil {
			memErr = err
		}
		if vertErrs[p] != nil && memErr == nil {
			memErr = fmt.Errorf("apply/broadcast phase: %w", vertErrs[p])
		}
	}

	st := dg.finishStats(start, snap0, busy, busyA, busyB, busyC)
	// Split simulated compute per phase: phases are barriers.
	st.SimComputeSeconds = cl.ComputeSeconds(busyA) + cl.ComputeSeconds(busyB) + cl.ComputeSeconds(busyC)
	st.SimNetSeconds = cl.NetSeconds(snap0, snapB) + cl.NetSeconds(snapB, cl.Snapshot())
	return st, memErr
}

// clStoreRelease releases n previously charged bytes from partition p's
// node. Releasing cannot newly exceed a budget, so any returned error is
// from a concurrent overrun and safe to surface.
func clStoreRelease(cl *cluster.Cluster, p int, n int64) error {
	if n == 0 {
		return nil
	}
	return cl.StoreMem(p, -n)
}

// finishStats assembles the common part of StepStats.
func (dg *DistGraph[V]) finishStats(start time.Time, snap0 cluster.Traffic, busy, busyA, busyB, busyC []float64) StepStats {
	after := dg.cl.Snapshot()
	for p := range busy {
		busy[p] = busyA[p] + busyB[p] + busyC[p]
	}
	return StepStats{
		WallSeconds:  time.Since(start).Seconds(),
		BusySeconds:  busy,
		CrossBytes:   after.CrossBytes - snap0.CrossBytes,
		CrossMsgs:    after.CrossMsgs - snap0.CrossMsgs,
		LocalBytes:   after.LocalBytes - snap0.LocalBytes,
		MemPeakBytes: after.MaxMemPeak(),
	}
}

package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"snaple/internal/core"
	"snaple/internal/graph"
	"snaple/internal/wire"
)

// ErrPartitionLost is returned (wrapped) by the dist backend when every
// replica of some partition has died: the run cannot produce that
// partition's masters, so it fails within the phase deadline instead of
// hanging. errors.Is(err, ErrPartitionLost) detects it through the wrapping.
var ErrPartitionLost = errors.New("partition lost: all replicas dead")

// distRun is the live state of one distributed prediction: the connections,
// which of them are still believed alive, and which replica currently
// serves each partition. It is the coordinator's failure domain — a
// connection error or a missed phase deadline marks that worker dead here,
// and the run continues on the survivors.
//
// Replication model: with replica factor R, partition p is held by the R
// connections groups[p]. Every replica receives identical traffic — the
// step-begin broadcast, the foreign partials routed to the partition's
// masters, the mirror refreshes — and therefore computes identically (all
// folds canonicalise, so per-chunk arrival order is irrelevant). That makes
// every replica equally authoritative at every superstep barrier: promotion
// is just the coordinator choosing a different connection to read from, and
// the results stay bit-identical to the healthy run.
//
// Failover protocol: workers know nothing about replication or failover.
// When a death is detected mid-superstep the coordinator finishes the
// attempt's full exchange with the survivors (they return to their session
// loop cleanly), then re-issues the same KindStepBegin — a complete re-run
// of the superstep on the survivors. Re-running is safe because each step's
// apply overwrites only its own output field, which its gather never reads;
// the aborted attempt's partial garbage is overwritten wholesale. Each
// restart consumes at least one death, so the retry count is bounded by the
// worker count.
type distRun struct {
	routes  *routing
	conns   []*wire.Conn // nil entries: workers that never connected
	partOf  []int        // conn index -> partition it serves
	groups  [][]int      // partition -> conn indices (its replicas)
	timeout time.Duration
	rt      *router

	mu         sync.Mutex
	alive      []bool
	deadErr    []error
	primary    []bool // conn currently serving its partition
	primaryOf  []int  // partition -> serving conn index, -1 when lost
	nDead      int
	nFailovers int
	newDead    bool // a death since the last beginAttempt
}

// newDistRun wires the run state for routes.parts partitions served by
// conns, where conns[p*replicas : (p+1)*replicas] are partition p's
// replicas. A nil connection is a worker that never dialed: it starts out
// dead, with dialErrs[i] as the verdict.
func newDistRun(routes *routing, conns []*wire.Conn, dialErrs []error, replicas int, timeout time.Duration) *distRun {
	r := &distRun{
		routes:    routes,
		conns:     conns,
		partOf:    make([]int, len(conns)),
		groups:    make([][]int, routes.parts),
		timeout:   timeout,
		alive:     make([]bool, len(conns)),
		deadErr:   make([]error, len(conns)),
		primary:   make([]bool, len(conns)),
		primaryOf: make([]int, routes.parts),
	}
	for i := range conns {
		p := i / replicas
		r.partOf[i] = p
		r.groups[p] = append(r.groups[p], i)
		r.alive[i] = true
	}
	for p := range r.primaryOf {
		r.primaryOf[p] = -1
	}
	r.rt = newRouter(r)
	for i, derr := range dialErrs {
		if derr != nil {
			r.markDead(i, derr)
		}
	}
	return r
}

// predict drives everything after connect: the attach handshake (attach(i)
// is connection i's job opener), the supersteps with their failover retries,
// collect, and the merge of the per-partition results: every partition's
// master predictions in one list, one entry per vertex that has any (masters
// are disjoint across partitions, so the merge is a concatenation). It fills
// st's run-cost fields; the per-partition results are returned alongside for
// the caller to aggregate the worker reports further.
//
// Cancelling ctx closes every connection, so whatever exchange is in flight
// fails within one read/write and the run drains through its normal failure
// paths; the deaths were then self-inflicted, and the caller gets ctx.Err()
// rather than a fleet failure — also when the run finished anyway (a
// failover onto a replica not yet closed). The watcher is gone when predict
// returns, so no connection is closed after its caller has judged it.
func (r *distRun) predict(ctx context.Context, g graph.View, st *Stats, attach func(i int) *wire.Msg) (preds []wire.VertexPreds, results []wire.WorkerResult, err error) {
	watchDone, watched := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watched)
		select {
		case <-ctx.Done():
			r.closeAll()
		case <-watchDone:
		}
	}()
	defer func() {
		close(watchDone)
		<-watched
		st.WorkersDead = r.deadCount()
		st.Failovers = r.failoverCount()
		if ctx.Err() != nil {
			preds, results, err = nil, nil, ctx.Err()
		}
	}()

	// Setup is the fingerprint handshake standing in for the distributed
	// graph load (which happened when the fleet opened): untimed like every
	// other backend's, its traffic reported apart as ShipBytes.
	base := r.traffic()
	r.beginAttempt()
	if err := r.lostErr("connect"); err != nil {
		return nil, nil, err
	}
	if err := r.setup(attach); err != nil {
		return nil, nil, fmt.Errorf("engine: dist attach: %w", err)
	}
	if err := r.lostErr("attach"); err != nil {
		return nil, nil, err
	}
	shipped := r.traffic()
	ship := shipped.Sub(base)
	st.ShipBytes = ship.BytesIn + ship.BytesOut

	// Everything from here on is the prediction itself: timed, and its
	// traffic is the measured cross-worker cost.
	start := time.Now()

	// A scoped superstep with no gather source that has an out-edge is
	// skipped entirely — no messages, no barrier. The final flag moves to
	// the last superstep that actually runs, so its refresh round is elided
	// like a full run's.
	steps := make([]core.DistStep, 0, 3)
	for _, step := range core.DistSteps() {
		if r.routes.stepHasWork(step) {
			steps = append(steps, step)
		}
	}
	// Each iteration is one attempt at one superstep. A death mid-attempt
	// aborts nothing visible: the attempt still completes its full exchange
	// with the survivors, then the same step is re-issued to them from the
	// top (see runStep for why the re-run is bit-identical). Every restart
	// consumes a death, so the loop is bounded by the worker count.
	for si := 0; si < len(steps); {
		r.beginAttempt()
		r.runStep(steps[si], si == len(steps)-1)
		if r.sawDeath() {
			if err := r.lostErr(fmt.Sprintf("%v", steps[si])); err != nil {
				return nil, nil, err
			}
			continue
		}
		si++
	}

	// Each partition's serving replica reports its masters' top-k; masters
	// are disjoint across partitions, so the merge needs no further folding.
	results, err = r.collect()
	if err != nil {
		return nil, nil, err
	}
	n := 0
	for p := range results {
		n += len(results[p].Preds)
	}
	preds = make([]wire.VertexPreds, 0, n)
	for p := range results {
		preds = append(preds, results[p].Preds...)
		st.MemPeakBytes = max(st.MemPeakBytes, results[p].Stats.HeapBytes)
	}
	st.WallSeconds = time.Since(start).Seconds()
	if st.WallSeconds > 0 {
		st.EdgesPerSec = float64(g.NumEdges()) / st.WallSeconds
	}
	cross := r.traffic().Sub(shipped)
	st.CrossBytes = cross.BytesIn + cross.BytesOut
	st.CrossMsgs = cross.MsgsIn + cross.MsgsOut
	return preds, results, nil
}

// traffic sums the connections' counters so far (dead ones keep theirs).
func (r *distRun) traffic() wire.Counters {
	var sum wire.Counters
	for _, c := range r.conns {
		if c != nil {
			n := c.Counters()
			sum.BytesIn += n.BytesIn
			sum.BytesOut += n.BytesOut
			sum.MsgsIn += n.MsgsIn
			sum.MsgsOut += n.MsgsOut
		}
	}
	return sum
}

// markDead records worker i's death and closes its connection, which
// unblocks any goroutine still reading or writing it. Idempotent: only the
// first verdict (and its error) counts.
func (r *distRun) markDead(i int, err error) {
	r.mu.Lock()
	if !r.alive[i] {
		r.mu.Unlock()
		return
	}
	r.alive[i] = false
	r.deadErr[i] = err
	r.nDead++
	r.newDead = true
	r.mu.Unlock()
	if c := r.conns[i]; c != nil {
		_ = c.Close()
	}
}

func (r *distRun) isAlive(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.alive[i]
}

func (r *distRun) isPrimary(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.primary[i]
}

// sawDeath reports whether any worker died since the last beginAttempt.
func (r *distRun) sawDeath() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.newDead
}

func (r *distRun) deadCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nDead
}

func (r *distRun) failoverCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nFailovers
}

// beginAttempt opens one attempt at a phase: it clears the death flag and
// re-elects each partition's serving replica as the first survivor of its
// group — the master-election-over-survivors step of a failover. A change
// of serving replica for a partition that had one is counted as a failover.
func (r *distRun) beginAttempt() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.newDead = false
	for p, group := range r.groups {
		np := -1
		for _, i := range group {
			if r.alive[i] {
				np = i
				break
			}
		}
		if prev := r.primaryOf[p]; prev >= 0 && np >= 0 && np != prev {
			r.nFailovers++
		}
		r.primaryOf[p] = np
	}
	for i := range r.primary {
		r.primary[i] = false
	}
	for _, i := range r.primaryOf {
		if i >= 0 {
			r.primary[i] = true
		}
	}
}

// armDeadline bounds every exchange of the upcoming phase on the live
// connections; the next phase re-arms, so a healthy long run never trips
// it, while a wedged or blackholed worker turns into a liveness verdict
// instead of a hang.
func (r *distRun) armDeadline() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, c := range r.conns {
		if c == nil || !r.alive[i] {
			continue
		}
		if r.timeout > 0 {
			_ = c.SetDeadline(time.Now().Add(r.timeout))
		} else {
			_ = c.SetDeadline(time.Time{})
		}
	}
}

// eachAlive runs fn once per live connection on its own goroutine; an error
// is a liveness verdict on that worker, not on the run. Each connection is
// touched by exactly one goroutine per direction (the router's sends to
// destinations are serialised separately, by routeDest.mu).
func (r *distRun) eachAlive(fn func(i int, c *wire.Conn) error) {
	r.mu.Lock()
	idx := make([]int, 0, len(r.conns))
	for i := range r.conns {
		if r.alive[i] {
			idx = append(idx, i)
		}
	}
	r.mu.Unlock()
	var wg sync.WaitGroup
	for _, i := range idx {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(i, r.conns[i]); err != nil {
				r.markDead(i, err)
			}
		}()
	}
	wg.Wait()
}

// lostErr reports the first partition with no surviving replica, wrapped
// around ErrPartitionLost with the last per-replica error for diagnosis.
// Nil while every partition still has a live replica.
func (r *distRun) lostErr(phase string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for p, group := range r.groups {
		var last error
		lost := true
		for _, i := range group {
			if r.alive[i] {
				lost = false
				break
			}
			if r.deadErr[i] != nil {
				last = r.deadErr[i]
			}
		}
		if lost {
			return fmt.Errorf("engine: dist %s: %w: partition %d (%d replicas; last error: %v)",
				phase, ErrPartitionLost, p, len(group), last)
		}
	}
	return nil
}

// closeAll force-closes every connection — the cancellation path. It does
// not mark anyone dead; the in-flight exchanges fail on their own and the
// verdicts land through the normal liveness machinery. A connection with no
// exchange in flight gets no verdict: its owner must drop it all the same.
func (r *distRun) closeAll() {
	for _, c := range r.conns {
		if c != nil {
			_ = c.Close()
		}
	}
}

// setup sends each live worker its attach and waits for every Ready, under
// the handshake deadline: a wedged worker never reads the attach, and
// without the bound that is a silent hang. Connection failures
// are liveness verdicts (a replica dead at setup fails over like any other
// death); a worker's typed rejection of the job — bad config, wrong
// fingerprint or shard — is deterministic, every replica would refuse the
// same way, so it fails the run instead.
func (r *distRun) setup(attach func(i int) *wire.Msg) error {
	var mu sync.Mutex
	var fatal error
	r.eachAlive(func(i int, c *wire.Conn) error {
		_ = c.SetDeadline(time.Now().Add(shipTimeout))
		defer func() { _ = c.SetDeadline(time.Time{}) }()
		err := sendAwaitReady(c, attach(i))
		if wire.IsRemoteError(err) {
			mu.Lock()
			if fatal == nil {
				fatal = err
			}
			mu.Unlock()
		}
		return err
	})
	return fatal
}

// runStep drives one attempt of one superstep across the live workers. It
// never returns an error: every failure inside is a liveness verdict on one
// connection, and the caller decides between restart and ErrPartitionLost
// from sawDeath/lostErr.
//
// Every live replica takes part in every phase — the step-begin broadcast,
// the partial drain, the final foreign chunks, the refresh round — so each
// attempt leaves every survivor back in its session loop regardless of who
// died mid-attempt; that is what makes the restart a clean re-issue of
// KindStepBegin. Only the serving replica's upstream records are routed;
// the standbys' identical streams are drained and discarded to keep their
// sessions in step.
func (r *distRun) runStep(step core.DistStep, final bool) {
	r.armDeadline()
	r.eachAlive(func(i int, c *wire.Conn) error {
		return c.Send(&wire.Msg{Kind: wire.KindStepBegin, Step: step, Final: final})
	})
	// Partials flow up and are routed to the master partitions' replica
	// groups as foreign partials.
	r.exchange(step, wire.KindPartials, wire.KindForeign, r.rt.routePartial)
	if final {
		return
	}
	// Refresh round: serving replicas push fresh master state up, the
	// coordinator fans each vertex's state out to every replica of every
	// partition holding one of its mirrors.
	r.exchange(step, wire.KindRefresh, wire.KindMirrors, r.rt.routeState)
}

// exchange runs one routing phase of a superstep: drain every live worker's
// up stream to its final chunk, routing the serving replicas' records as they
// arrive (order across sources is irrelevant: all folds canonicalise), then
// end every live destination's down stream with a final-flagged chunk —
// possibly empty, the terminator its next phase waits for. Each half re-arms
// the deadline on the survivors: a stalled worker consumes its own window,
// not the windows of the phases that finish the attempt after its death.
func (r *distRun) exchange(step core.DistStep, up, down wire.Kind, route func(v graph.VertexID, rec []byte) error) {
	rt := r.rt
	rt.reset(step, down)
	r.armDeadline()
	r.eachAlive(func(i int, c *wire.Conn) error {
		serving := r.isPrimary(i)
		for {
			f, err := c.RecvRaw()
			if err != nil {
				return err
			}
			if f.Kind != up || f.Step != step {
				return fmt.Errorf("%s for %v during %v %s", f.Kind, f.Step, step, up)
			}
			if serving {
				if err := wire.ForEachRecord(up, f.Payload, route); err != nil {
					return err
				}
			}
			if f.Final {
				return nil
			}
		}
	})
	r.armDeadline()
	r.eachAlive(func(i int, c *wire.Conn) error {
		dst := &rt.dests[i]
		dst.mu.Lock()
		defer dst.mu.Unlock()
		return c.SendRaw(down, step, true, dst.bb.Payload())
	})
}

// collect gathers one result per partition, failing over to standbys: any
// replica holds identical master state, so the first that answers serves.
// Partitions never share a connection, so the per-partition goroutines
// touch disjoint conns.
func (r *distRun) collect() ([]wire.WorkerResult, error) {
	results := make([]wire.WorkerResult, len(r.groups))
	got := make([]bool, len(r.groups))
	var wg sync.WaitGroup
	for p := range r.groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := r.promote(p)
				if i < 0 {
					return
				}
				c := r.conns[i]
				// Re-arm per attempt: a blackholed primary may have eaten
				// the phase's shared deadline window before the standby
				// gets its turn.
				if r.timeout > 0 {
					_ = c.SetDeadline(time.Now().Add(r.timeout))
				}
				if err := c.Send(&wire.Msg{Kind: wire.KindCollect}); err != nil {
					r.markDead(i, err)
					continue
				}
				m, err := c.Expect(wire.KindResult)
				if err != nil {
					r.markDead(i, err)
					continue
				}
				results[p] = m.Result
				got[p] = true
				return
			}
		}()
	}
	wg.Wait()
	for p := range got {
		if !got[p] {
			return nil, r.lostErr("collect")
		}
	}
	return results, nil
}

// promote returns partition p's serving connection, electing the first
// survivor (and counting the failover) when the previous one died.
func (r *distRun) promote(p int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, i := range r.groups[p] {
		if r.alive[i] {
			if prev := r.primaryOf[p]; prev >= 0 && prev != i {
				r.nFailovers++
			}
			r.primaryOf[p] = i
			return i
		}
	}
	r.primaryOf[p] = -1
	return -1
}

// router is the coordinator's streaming exchange state: one destination per
// connection, each holding the outgoing chunk under construction. Records are
// routed raw — appended verbatim to the destination's batch and flushed in
// fixed-size chunks as they arrive, so the coordinator never decodes what it
// only forwards. A record for partition p fans out to every live replica in
// groups[p] — identical inbound traffic is what keeps the replicas
// interchangeable. A send failure to a destination is a liveness verdict on
// that destination and never propagates to the source being drained.
type router struct {
	step  core.DistStep
	kind  wire.Kind // the down-stream kind of the phase being routed
	dests []routeDest
	run   *distRun
}

type routeDest struct {
	mu sync.Mutex
	c  *wire.Conn
	bb wire.BatchBuilder
}

func newRouter(r *distRun) *router {
	rt := &router{dests: make([]routeDest, len(r.conns)), run: r}
	for i := range rt.dests {
		rt.dests[i].c = r.conns[i]
		if r.conns[i] == nil {
			continue
		}
		// Chunks flush at routeChunkBytes, but the record that crosses the
		// threshold still has to fit; the slop covers typical record sizes
		// so steady-state routing never grows the builder.
		rt.dests[i].bb.Reset()
		rt.dests[i].bb.Grow(routeChunkBytes + routeChunkBytes/4)
	}
	return rt
}

// reset readies the router for one routing phase of step, keeping buffers.
func (rt *router) reset(step core.DistStep, kind wire.Kind) {
	rt.step, rt.kind = step, kind
	for i := range rt.dests {
		rt.dests[i].bb.Reset()
	}
}

// forward appends one raw record to destination j's batch, sending the chunk
// when it reaches the threshold. A send failure marks j dead.
func (rt *router) forward(j int, rec []byte) {
	if !rt.run.isAlive(j) {
		return
	}
	d := &rt.dests[j]
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bb.AppendRaw(rec)
	if d.bb.Len() < routeChunkBytes {
		return
	}
	if err := d.c.SendRaw(rt.kind, rt.step, false, d.bb.Payload()); err != nil {
		rt.run.markDead(j, err)
	}
	d.bb.Reset()
}

// routePartial routes one encoded partial record to every replica of its
// vertex's master partition.
func (rt *router) routePartial(v graph.VertexID, rec []byte) error {
	mp, _ := rt.run.routes.roles(v)
	if mp < 0 {
		return fmt.Errorf("partial for vertex %d, which no partition hosts", v)
	}
	for _, j := range rt.run.groups[mp] {
		rt.forward(j, rec)
	}
	return nil
}

// routeState fans one encoded state record out to every replica of every
// partition holding one of the vertex's mirrors.
func (rt *router) routeState(v graph.VertexID, rec []byte) error {
	mp, hosts := rt.run.routes.roles(v)
	for _, p := range hosts {
		if p == mp {
			continue
		}
		for _, j := range rt.run.groups[p] {
			rt.forward(j, rec)
		}
	}
	return nil
}

package engine

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"snaple/internal/core"
	"snaple/internal/graph"
	"snaple/internal/partition"
	"snaple/internal/randx"
	"snaple/internal/wire"
)

// Dist runs Algorithm 2 across real worker processes connected over TCP —
// the scale-out half of the paper, with an actual network where the sim
// backend has a cost model. The coordinator (this type) vertex-cuts the
// graph with internal/partition, ships one partition to each worker
// (cmd/snaple-worker speaking the internal/wire protocol), then drives the
// same GAS supersteps the sim backend runs: workers gather locally, partials
// for remotely-mastered vertices are routed through the coordinator to the
// master's worker, masters apply, and refreshed state is routed back to the
// mirror copies. Per-worker top-k predictions are merged at the end — each
// vertex has exactly one master, and every fold along the way is
// order-independent, so the result is bit-identical to Serial, Local and Sim
// for any worker count.
//
// Stats.CrossBytes and Stats.CrossMsgs are measured on the wire (all
// coordinator↔worker traffic after the initial partition shipping, which —
// like the sim backend's graph load — the paper's timings exclude), not
// simulated.
//
// Three ways to get workers, in priority order:
//
//   - Addrs: connect to already-running snaple-worker processes (a real
//     cluster, or the CI cluster-smoke script's loopback fleet);
//   - Spawn: fork N snaple-worker processes on loopback and tear them down
//     with the run (requires the binary, see WorkerBin);
//   - otherwise InProc in-process loopback workers (still real TCP and real
//     wire frames through the kernel, just not a separate OS process) — the
//     zero-config default used by engine.New, Predict and the equivalence
//     tests.
type Dist struct {
	// Addrs connects to running workers ("host:port" each). Takes priority
	// over Spawn/InProc.
	Addrs []string
	// Spawn forks this many snaple-worker processes on loopback for the
	// duration of the run.
	Spawn int
	// WorkerBin locates the worker binary for Spawn (default: "snaple-worker"
	// resolved through PATH).
	WorkerBin string
	// InProc serves this many in-process loopback workers when neither Addrs
	// nor Spawn is given (0 = 2).
	InProc int
	// Strategy selects the vertex-cut, one partition per worker group
	// (nil = partition.HashEdge{Seed}).
	Strategy partition.Strategy
	// Seed drives partitioning and master election.
	Seed uint64
	// Replicas ships each partition to this many workers (0 or 1 = no
	// replication). With R > 1 the available workers divide into
	// avail/R groups of R replicas each; every replica receives identical
	// traffic and computes identically, so when a worker dies the run fails
	// over to a surviving replica and completes with bit-identical results.
	// Only when all R replicas of a partition are gone does the run fail,
	// with ErrPartitionLost. Values above the worker count are clamped.
	Replicas int
	// StepTimeout bounds each superstep (and the final collect) per run: a
	// wedged worker or a blackholed connection is then declared dead at the
	// deadline — a failover (or, with no replicas left, ErrPartitionLost)
	// instead of a hang. 0 means the 10-minute default; negative disables
	// the bound (for legitimately enormous supersteps).
	StepTimeout time.Duration
	// DialAttempts bounds connection attempts per worker during setup:
	// transient dial and spawn-handshake failures are retried with
	// exponential backoff and jitter up to this many tries (0 = 3).
	DialAttempts int
	// DialBackoff is the initial retry backoff, doubled after each failed
	// attempt with jitter (0 = 150ms).
	DialBackoff time.Duration
	// Compress requests per-frame flate compression (subject to each worker
	// granting it) — a cross-rack bandwidth trade.
	Compress bool
}

// routeChunkBytes is the coordinator's flush threshold while routing
// records: the same fixed chunk size workers stream partials up in.
const routeChunkBytes = 64 << 10

// distMode is the resolved connection mode; mode() is the single source of
// the Addrs > Spawn > InProc priority and the in-proc default, consulted by
// both workerCount and connect so the two can never drift.
type distMode int

const (
	modeAddrs distMode = iota
	modeSpawn
	modeInProc
)

// mode resolves the connection mode and its worker count.
func (d Dist) mode() (distMode, int) {
	switch {
	case len(d.Addrs) > 0:
		return modeAddrs, len(d.Addrs)
	case d.Spawn > 0:
		return modeSpawn, d.Spawn
	default:
		n := d.InProc
		if n <= 0 {
			n = 2
		}
		return modeInProc, n
	}
}

// shipTimeout bounds the ship/ready handshake per worker. Generous — a big
// subgraph legitimately takes a while to encode and load — but finite: a
// worker that is busy with another coordinator's session will never answer
// at all, and that must surface as an error, not a hang.
const shipTimeout = 2 * time.Minute

// Name implements Backend.
func (Dist) Name() string { return "dist" }

// workerCount resolves how many workers the run will use.
func (d Dist) workerCount() int {
	_, n := d.mode()
	return n
}

// stepTimeout resolves the per-superstep bound (0 = unbounded).
func (d Dist) stepTimeout() time.Duration {
	switch {
	case d.StepTimeout < 0:
		return 0
	case d.StepTimeout == 0:
		return 10 * time.Minute
	default:
		return d.StepTimeout
	}
}

// replicaCount resolves the replica factor against the available workers.
func (d Dist) replicaCount(avail int) int {
	r := d.Replicas
	if r <= 0 {
		r = 1
	}
	if r > avail {
		r = avail
	}
	return r
}

// Predict implements Backend.
func (d Dist) Predict(g graph.View, cfg core.Config) (core.Predictions, Stats, error) {
	return d.PredictCtx(context.Background(), g, cfg)
}

// PredictCtx implements ContextBackend: Predict under a context. Cancelling
// ctx closes every worker connection, so whatever exchange is in flight
// fails promptly and the call returns ctx.Err() — the resident workers see
// their session end and stay reusable for the next job.
func (d Dist) PredictCtx(ctx context.Context, g graph.View, cfg core.Config) (core.Predictions, Stats, error) {
	avail := d.workerCount()
	reps := d.replicaCount(avail)
	st := Stats{Engine: "dist", Workers: avail, Replicas: reps}
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, st, err
	}
	job, err := wire.JobFromConfig(cfg)
	if err != nil {
		return nil, st, err
	}

	// Query scope: the coordinator computes the frontier closure once, then
	// ships only the partitions that hold at least one closure edge —
	// everything any superstep's gather can touch — plus per-local scope
	// masks so workers gate their gathers without ever seeing the closure.
	frontier, err := core.NewFrontier(g, cfg)
	if err != nil {
		return nil, st, err
	}
	st.FrontierVertices = frontier.Size()
	st.ScoredVertices = g.NumVertices()
	if frontier != nil {
		st.ScoredVertices = frontier.Pred.Len()
	}

	// R replicas per partition means avail/R partitions: capacity pays for
	// availability, the trade named in the paper's scale-out story.
	dep, err := d.deploy(g, avail/reps, frontier)
	if err != nil {
		return nil, st, err
	}
	st.ReplicationFactor = dep.replicationFactor()
	if len(dep.parts) == 0 {
		// Scoped run whose closure touches no edge anywhere (isolated
		// sources): nothing to ship and nothing to compute.
		return make(core.Predictions, g.NumVertices()), st, nil
	}
	need := len(dep.parts) * reps
	st.Workers = need

	// With replication a worker that never connects is a degraded start,
	// not a failed run: it is recorded dead and its group's survivors carry
	// the partition.
	conns, dialErrs, inproc, cleanup, retries, err := d.connect(need, reps > 1)
	st.DialRetries = retries
	if err != nil {
		return nil, st, fmt.Errorf("engine: dist: %w", err)
	}
	defer cleanup()

	run := newDistRun(dep, conns, dialErrs, reps, d.stepTimeout())
	pred, results, err := run.predict(ctx, g, cfg.Paths, &st, "ship", func(i int) *wire.Msg {
		return &wire.Msg{Kind: wire.KindShip, Version: wire.ProtocolV3, Job: job, Part: dep.parts[run.partOf[i]]}
	})
	for p := range results {
		ws := &results[p].Stats
		if inproc {
			// Loopback workers share this process, so each worker's MemStats
			// delta already covers everyone (coordinator included): summing
			// would count the same heap N times. The max is the closest
			// honest process-wide figure.
			st.AllocBytes = max(st.AllocBytes, ws.AllocBytes)
			st.AllocObjects = max(st.AllocObjects, ws.AllocObjects)
		} else {
			st.AllocBytes += ws.AllocBytes
			st.AllocObjects += ws.AllocObjects
		}
	}
	return pred, st, err
}

// deployment is the coordinator's routing state: the shippable partition
// payloads plus, per global vertex, the partition mastering it and the
// partitions holding its mirror copies. On a query-scoped run only the
// partitions intersecting the frontier closure exist here — the rest of the
// vertex-cut is never shipped.
type deployment struct {
	parts      []wire.Partition
	masterPart []int32   // per vertex; -1 when the vertex has no edges
	mirrors    [][]int32 // per vertex: replica partitions excluding the master
	replicas   int       // total replica count
	present    int       // vertices with at least one replica
	frontier   *core.Frontier
	// deg is the full out-degree table (scoped runs only): with frontier,
	// the superstep-skip test's input.
	deg []int32
}

func (d *deployment) replicationFactor() float64 {
	if d.present == 0 {
		return 0
	}
	return float64(d.replicas) / float64(d.present)
}

// stepHasWork reports whether any partition gathers anything in step: some
// vertex of the step's frontier set has an out-edge (every such edge lies in
// a kept partition). Always true on a full run.
func (d *deployment) stepHasWork(step core.DistStep) bool {
	return d.frontier.StepHasWork(step, d.deg)
}

// deploy vertex-cuts g into one partition per worker and elects masters the
// same deterministic way gas.Distribute does. On a query-scoped run
// (frontier non-nil) partitions holding no closure edge are dropped before
// shipping, the survivors renumbered densely, and each kept partition
// carries its locals' scope masks; election then runs over the surviving
// replicas — placement never changes results, so the scoped predictions
// still match the full run's bit for bit.
func (d Dist) deploy(g graph.View, nw int, frontier *core.Frontier) (*deployment, error) {
	strat := d.Strategy
	if strat == nil {
		strat = partition.HashEdge{Seed: d.Seed}
	}
	assign, err := strat.Partition(g, nw)
	if err != nil {
		return nil, err
	}

	type rawEdge struct{ u, v graph.VertexID }
	rawEdges := make([][]rawEdge, nw)
	{
		i := 0
		g.ForEachEdge(func(u, v graph.VertexID) {
			p := assign.EdgeTo[i]
			rawEdges[p] = append(rawEdges[p], rawEdge{u, v})
			i++
		})
	}
	if frontier != nil {
		// An edge matters to some superstep iff its source is in the
		// truncation closure (the largest set); a partition with none can
		// never contribute a byte to the sources' predictions.
		kept := rawEdges[:0]
		for _, edges := range rawEdges {
			for _, e := range edges {
				if frontier.InTrunc(e.u) {
					kept = append(kept, edges)
					break
				}
			}
		}
		rawEdges = kept
		nw = len(rawEdges)
	}

	dep := &deployment{
		parts:      make([]wire.Partition, nw),
		masterPart: make([]int32, g.NumVertices()),
		mirrors:    make([][]int32, g.NumVertices()),
		frontier:   frontier,
	}
	for v := range dep.masterPart {
		dep.masterPart[v] = -1
	}
	if frontier != nil {
		dep.deg = make([]int32, g.NumVertices())
		for v := range dep.deg {
			dep.deg[v] = int32(g.OutDegree(graph.VertexID(v)))
		}
	}
	index := make([]map[graph.VertexID]int32, nw)
	for p := 0; p < nw; p++ {
		seen := make(map[graph.VertexID]struct{}, len(rawEdges[p]))
		for _, e := range rawEdges[p] {
			seen[e.u] = struct{}{}
			seen[e.v] = struct{}{}
		}
		locals := make([]graph.VertexID, 0, len(seen))
		for v := range seen {
			locals = append(locals, v)
		}
		sort.Slice(locals, func(i, j int) bool { return locals[i] < locals[j] })
		idx := make(map[graph.VertexID]int32, len(locals))
		deg := make([]int32, len(locals))
		for i, v := range locals {
			idx[v] = int32(i)
			deg[i] = int32(g.OutDegree(v))
		}
		edgeSrc := make([]int32, len(rawEdges[p]))
		edgeDst := make([]int32, len(rawEdges[p]))
		for i, e := range rawEdges[p] {
			edgeSrc[i] = idx[e.u]
			edgeDst[i] = idx[e.v]
		}
		index[p] = idx
		dep.parts[p] = wire.Partition{
			Part: p, NumVertices: g.NumVertices(),
			Locals: locals, Deg: deg,
			EdgeSrc: edgeSrc, EdgeDst: edgeDst,
			IsMaster:  make([]bool, len(locals)),
			HasRemote: make([]bool, len(locals)),
		}
		if frontier != nil {
			scope := make([]uint8, len(locals))
			for i, v := range locals {
				scope[i] = frontier.ScopeMask(v)
			}
			dep.parts[p].Scope = scope
		}
	}

	// Master election among each vertex's replicas, in ascending partition
	// order — the same deterministic draw gas.Distribute uses. (Placement
	// never changes results, only where each apply runs.)
	type vp struct {
		v graph.VertexID
		p int32
	}
	var pairs []vp
	for p := 0; p < nw; p++ {
		for _, v := range dep.parts[p].Locals {
			pairs = append(pairs, vp{v, int32(p)})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].v != pairs[j].v {
			return pairs[i].v < pairs[j].v
		}
		return pairs[i].p < pairs[j].p
	})
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j].v == pairs[i].v {
			j++
		}
		v := pairs[i].v
		replicas := pairs[i:j]
		mp := replicas[randx.Uint64n(uint64(len(replicas)), d.Seed, uint64(v), 0xA5)].p
		dep.masterPart[v] = mp
		mi := index[mp][v]
		dep.parts[mp].IsMaster[mi] = true
		dep.parts[mp].HasRemote[mi] = len(replicas) > 1
		if len(replicas) > 1 {
			mirrors := make([]int32, 0, len(replicas)-1)
			for _, r := range replicas {
				if r.p != mp {
					mirrors = append(mirrors, r.p)
				}
			}
			dep.mirrors[v] = mirrors
		}
		dep.replicas += len(replicas)
		dep.present++
		i = j
	}
	return dep, nil
}

// dialAttempts resolves the per-worker connection attempt bound.
func (d Dist) dialAttempts() int {
	if d.DialAttempts > 0 {
		return d.DialAttempts
	}
	return 3
}

// dialBackoffBase resolves the initial retry backoff.
func (d Dist) dialBackoffBase() time.Duration {
	if d.DialBackoff > 0 {
		return d.DialBackoff
	}
	return 150 * time.Millisecond
}

// retryableDial reports whether a connect failure is worth another attempt:
// network-layer trouble (timeouts, refusals, resets) and torn connections
// are transient; a deliberate or deterministic rejection — a typed error
// frame, wire.ErrProtocolMismatch — never is.
func retryableDial(err error) bool {
	if wire.IsRemoteError(err) {
		return false
	}
	var ne net.Error
	return errors.As(err, &ne) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// withRetry runs attempt up to dialAttempts times with exponential backoff
// and jitter between tries (the jitter keeps a fleet-wide reconnect from
// stampeding one worker). always retries every failure — for spawn, where
// each attempt forks a fresh process and any failure is worth a retry;
// otherwise only retryableDial failures are retried. Returns how many
// retries ran and the final error.
func (d Dist) withRetry(always bool, attempt func() error) (retries int, err error) {
	backoff := d.dialBackoffBase()
	attempts := d.dialAttempts()
	for i := 0; ; i++ {
		err = attempt()
		if err == nil || i+1 >= attempts || (!always && !retryableDial(err)) {
			return retries, err
		}
		retries++
		sleep := backoff
		if j := backoff / 2; j > 0 {
			sleep += rand.N(j)
		}
		time.Sleep(sleep)
		backoff *= 2
	}
}

// connect establishes connections to n workers according to the configured
// mode, returning a cleanup that closes connections and reclaims whatever
// was started. n is at most the mode's worker count — a query-scoped run
// that dropped partitions needs fewer workers (the first n addresses, or n
// spawned/loopback workers). Transient failures are retried with backoff;
// with tolerate set (replicated runs) a worker that stays unreachable comes
// back as a nil connection with its error in dialErrs, for the caller to
// record as dead — without it (no replicas to absorb the loss) any failure
// is fatal. inproc reports that the workers share this process (the
// loopback default), which changes how worker memory reports aggregate.
// cleanup is non-nil even on error.
func (d Dist) connect(n int, tolerate bool) (conns []*wire.Conn, dialErrs []error, inproc bool, cleanup func(), retries int, err error) {
	var closers []func()
	cleanup = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	fail := func(err error) ([]*wire.Conn, []error, bool, func(), int, error) {
		cleanup()
		return nil, nil, false, func() {}, retries, err
	}
	addConn := func(addr string) error {
		var c *wire.Conn
		r, err := d.withRetry(false, func() error {
			var derr error
			c, derr = wire.DialWith(addr, wire.DialOptions{Compress: d.Compress})
			return derr
		})
		retries += r
		if err != nil {
			if tolerate {
				conns = append(conns, nil)
				dialErrs = append(dialErrs, fmt.Errorf("engine: dist dial %s: %w", addr, err))
				return nil
			}
			return err
		}
		closers = append(closers, func() { c.Close() })
		conns = append(conns, c)
		dialErrs = append(dialErrs, nil)
		return nil
	}

	mode, avail := d.mode()
	if n > avail {
		return fail(fmt.Errorf("need %d workers but the deployment provides %d", n, avail))
	}
	switch mode {
	case modeAddrs:
		// A worker serves one session at a time, so dialing the same worker
		// twice deadlocks the ship handshake (caught late by shipTimeout);
		// reject the footgun up front instead.
		seen := make(map[string]struct{}, len(d.Addrs))
		for _, addr := range d.Addrs[:n] {
			if _, dup := seen[addr]; dup {
				return fail(fmt.Errorf("duplicate worker address %q: each worker serves one session at a time", addr))
			}
			seen[addr] = struct{}{}
			if err := addConn(addr); err != nil {
				return fail(err)
			}
		}
	case modeSpawn:
		bin := d.WorkerBin
		if bin == "" {
			bin = "snaple-worker"
		}
		path, err := exec.LookPath(bin)
		if err != nil {
			return fail(fmt.Errorf("worker binary %q not found (build cmd/snaple-worker or set WorkerBin): %w", bin, err))
		}
		for i := 0; i < n; i++ {
			// One attempt = one fresh process plus its handshake; a failed
			// attempt reaps its process before the retry, so a flaky worker
			// start never leaks an orphan.
			var c *wire.Conn
			var stop func()
			r, err := d.withRetry(true, func() error {
				addr, s, serr := spawnWorker(path)
				if serr != nil {
					return serr
				}
				cc, derr := wire.DialWith(addr, wire.DialOptions{Compress: d.Compress})
				if derr != nil {
					s()
					return derr
				}
				c, stop = cc, s
				return nil
			})
			retries += r
			if err != nil {
				if tolerate {
					conns = append(conns, nil)
					dialErrs = append(dialErrs, fmt.Errorf("engine: dist spawn: %w", err))
					continue
				}
				return fail(err)
			}
			closers = append(closers, stop, func() { c.Close() })
			conns = append(conns, c)
			dialErrs = append(dialErrs, nil)
		}
	default:
		inproc = true
		for i := 0; i < n; i++ {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return fail(err)
			}
			go func() { _ = wire.Serve(l, nil) }()
			closers = append(closers, func() { l.Close() })
			if err := addConn(l.Addr().String()); err != nil {
				return fail(err)
			}
		}
	}
	return conns, dialErrs, inproc, cleanup, retries, nil
}

// spawnWorker forks one snaple-worker on an ephemeral loopback port and
// parses the address it announces on stdout ("listening <addr>"). The
// worker's stderr passes through, so a crashed worker leaves its diagnostics
// next to the coordinator's EOF error.
func spawnWorker(bin string) (addr string, stop func(), err error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, err
	}
	if err := cmd.Start(); err != nil {
		return "", nil, fmt.Errorf("spawn %s: %w", bin, err)
	}
	stop = func() {
		// Kill first so the stdout scanner (below) hits EOF, then cmd.Wait —
		// not Process.Wait — to release the StdoutPipe.
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	select {
	case line, ok := <-lines:
		fields := strings.Fields(line)
		if !ok || len(fields) != 2 || fields[0] != "listening" {
			stop()
			return "", nil, fmt.Errorf("spawn %s: unexpected announcement %q", bin, line)
		}
		return fields[1], stop, nil
	case <-time.After(10 * time.Second):
		stop()
		return "", nil, fmt.Errorf("spawn %s: worker never announced its address", bin)
	}
}

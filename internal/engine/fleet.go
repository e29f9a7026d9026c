package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"os/exec"
	"slices"
	"sync"
	"time"

	"snaple/internal/core"
	"snaple/internal/graph"
	"snaple/internal/partition"
	"snaple/internal/wire"
)

// ErrManifestMismatch re-exports the wire layer's typed rejection: a worker
// whose resident shard was packed from a different (graph, cut) than the
// coordinator's manifest. errors.Is(err, ErrManifestMismatch) detects it
// through any wrapping.
var ErrManifestMismatch = wire.ErrManifestMismatch

// FleetFingerprint identifies a (graph, vertex-cut) pairing: FNV-1a over the
// vertex and edge counts, the full adjacency stream, and the cut parameters
// (fleet width, strategy name, seed). Pack stamps it into every shard and the
// manifest; attach verifies it in place of re-shipping the partition — equal
// fingerprints mean the worker's columns are byte-equal to what a fresh ship
// would have produced.
func FleetFingerprint(g graph.View, shards int, strategy string, seed uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w64 := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	w64(uint64(g.NumVertices()))
	w64(uint64(g.NumEdges()))
	g.ForEachEdge(func(u, v graph.VertexID) {
		binary.LittleEndian.PutUint32(b[:4], uint32(u))
		binary.LittleEndian.PutUint32(b[4:], uint32(v))
		h.Write(b[:])
	})
	w64(uint64(shards))
	h.Write([]byte(strategy))
	w64(seed)
	return h.Sum64()
}

// PackShards vertex-cuts g into shards resident partitions — the very cut
// (and deterministic master election) OpenFleet computes, so a fleet attached
// to the packed shards is bit-identical to one that shipped them — and
// describes them in a manifest. The manifest's Files column is left empty —
// the packer names the files.
func PackShards(g graph.View, strat partition.Strategy, seed uint64, shards int) ([]*graph.ShardFile, *graph.Manifest, error) {
	if shards <= 0 {
		return nil, nil, fmt.Errorf("engine: pack: non-positive shard count %d", shards)
	}
	if strat == nil {
		strat = partition.HashEdge{Seed: seed}
	}
	dep, err := cut(g, strat, seed, shards, true)
	if err != nil {
		return nil, nil, err
	}
	man := &graph.Manifest{
		Fingerprint: dep.fingerprint,
		Shards:      shards,
		NumVertices: g.NumVertices(),
		NumEdges:    int64(g.NumEdges()),
		Seed:        seed,
		Strategy:    strat.Name(),
		Files:       make([]string, shards),
		Locals:      make([]int64, shards),
		Masters:     make([]int64, shards),
		Edges:       make([]int64, shards),
	}
	for p, sf := range dep.Shards {
		man.Locals[p] = int64(len(sf.Locals))
		man.Edges[p] = int64(len(sf.EdgeSrc))
		for _, r := range sf.Roles {
			if r&graph.RoleMaster != 0 {
				man.Masters[p]++
			}
		}
	}
	return dep.Shards, man, nil
}

// FleetInfo describes a standing fleet's topology, for operators
// (snaple-serve's /v1/info endpoint).
type FleetInfo struct {
	// Shards is the fleet width of the vertex cut.
	Shards int
	// Replicas is how many workers serve each shard.
	Replicas int
	// Workers is Shards*Replicas, the standing connection count.
	Workers int
	// Fingerprint is the fleet fingerprint every worker was verified against.
	Fingerprint uint64
}

// FleetOptions configures OpenFleet (and, as Dist, a one-shot run). Three
// ways to get workers, in priority order: Addrs, Spawn, otherwise in-process.
type FleetOptions struct {
	// Addrs connects to running snaple-worker processes ("host:port" each),
	// shard-major: Addrs[s*Replicas+r] is replica r of shard s. With a
	// Manifest they are resident workers (started with -shard) and there must
	// be exactly Shards*Replicas of them; without one they are plain workers,
	// each shipped its shard once over the standing connection, and W of them
	// form W/Replicas shards (Replicas clamped to W, the remainder unused).
	Addrs []string
	// Manifest pins the fleet identity: shard count, cut strategy and seed,
	// and the fingerprint every worker must present. Nil derives all of them
	// from the worker count (or InProc), Strategy and Seed instead.
	Manifest *graph.Manifest
	// Spawn forks this many plain snaple-worker processes on loopback, shipped
	// and counted like manifest-less Addrs, and tears them down at Close
	// (requires the binary, see WorkerBin).
	Spawn int
	// WorkerBin locates the worker binary for Spawn (default: "snaple-worker"
	// resolved through PATH).
	WorkerBin string
	// InProc is the shard count of an in-process fleet, the zero-config mode
	// when neither Addrs nor Spawn is given (0 = 2): Replicas loopback
	// listeners per shard, each pinned to its in-memory shard — still real TCP
	// and real frames through the kernel, just no separate OS process and no
	// partition bytes on the wire.
	InProc int
	// Replicas is the per-shard replica count (0 or 1 = no replication). Every
	// replica receives identical traffic and computes identically, so when a
	// worker dies a query fails over to a surviving replica and completes with
	// bit-identical results. Only when all replicas of a shard are gone does
	// it fail, with ErrPartitionLost.
	Replicas int
	// Strategy/Seed are the cut parameters when no Manifest pins them
	// (nil = partition.HashEdge{Seed}); Seed also drives master election.
	Strategy partition.Strategy
	Seed     uint64
	// StepTimeout bounds each superstep (and the final collect): a wedged
	// worker or a blackholed connection is then declared dead at the deadline
	// — a failover (or, with no replicas left, ErrPartitionLost) instead of a
	// hang. 0 means the 10-minute default; negative disables the bound (for
	// legitimately enormous supersteps).
	StepTimeout time.Duration
	// DialAttempts bounds connection attempts per worker: transient dial and
	// spawn-handshake failures are retried with exponential backoff (from
	// 150ms) and jitter up to this many tries (0 = 3).
	DialAttempts int
	// Compress requests per-frame flate compression (subject to each worker
	// granting it) — a cross-rack bandwidth trade.
	Compress bool
}

// shape is the one rule from the options to the fleet's dimensions. A
// Manifest pins the shard count, and external workers must fill it exactly.
// Without one, W external workers (Addrs, else Spawn) divide into W/R groups
// of R replicas — R clamped to W, the remainder unused: capacity pays for
// availability, the trade named in the paper's scale-out story. An in-process
// fleet has InProc shards (default 2) of R workers each.
func (o FleetOptions) shape() (shards, reps int, err error) {
	reps = max(o.Replicas, 1)
	workers := len(o.Addrs)
	if workers == 0 {
		workers = max(o.Spawn, 0)
	}
	switch {
	case o.Manifest != nil:
		shards = o.Manifest.Shards
		if workers > 0 && workers != shards*reps {
			return 0, 0, fmt.Errorf("engine: fleet: %d workers for %d shards x %d replicas", workers, shards, reps)
		}
	case workers > 0:
		reps = min(reps, workers)
		shards = workers / reps
	default:
		shards = o.InProc
		if shards <= 0 {
			shards = 2
		}
	}
	return shards, reps, nil
}

// Fleet is the distributed coordinator: a vertex cut computed once, workers
// that each hold one shard of it, standing connections, and per-query routing
// that contacts only the replica groups whose shards intersect the query's
// frontier closure. It drives the same GAS supersteps the sim backend runs:
// workers gather locally, partials for remotely-mastered vertices are routed
// through the coordinator to the master's worker, masters apply, and
// refreshed state is routed back to the mirror copies. The fleet pays for the
// cut once at Open: the placement it routes by and the fingerprint, two
// passes over the edges, plus — only for workers that pinned no packed shard —
// the shard columns and their shipping. Every query then opens with a
// fingerprint attach (plus, on scoped queries, the sparse
// per-closure-vertex roles), never partition bytes.
// A scoped query costs its closure on every side: the coordinator's routing
// tables are indexed by the closure's members, each worker's session by its
// entries, and PredictScoped hands the sources' rows back sparse — only the
// dense Predict builds a |V|-long table, for its contract.
//
// A Fleet is safe for concurrent use; queries are serialised internally over
// the standing connections. Results are bit-identical to every other backend
// for the same (graph, Config) — the cut is just another placement, and
// placement never changes results.
type Fleet struct {
	g           graph.View
	o           FleetOptions
	shards      int
	replicas    int
	fingerprint uint64
	seed        uint64
	timeout     time.Duration // per-superstep bound, 0 = unbounded

	dep *deployment // the cut; its shards kept only when ship

	addrs  []string // one per connection, shard-major
	stops  []func() // in-process listeners and spawned processes, for Close
	inproc bool
	ship   bool // workers pinned no shard: each connection is shipped its own

	mu          sync.Mutex
	conns       []*wire.Conn // nil: never dialed or swept after death
	openErr     []error      // why Open left a slot unconnected, until a query reports it
	closed      bool
	cumDead     int
	cumFailover int
	cumRetries  int
}

// handshakeJob is a minimal valid job used for the connect-time fingerprint
// verification attach; the session it starts is replaced by the first real
// query's attach.
var handshakeJob = wire.JobSpec{Score: "counter", Alpha: 0.9, K: 1}

// OpenFleet cuts g, stands up (or connects to) the workers and leaves every
// one of them holding its shard, verified against the fleet fingerprint. With
// a Manifest the graph must match it exactly — vertex count, edge count and
// fingerprint — and every worker presenting a different fingerprint is
// rejected with ErrManifestMismatch. The returned Fleet holds standing
// connections until Close and serves exactly the view it was opened with.
func OpenFleet(g graph.View, o FleetOptions) (*Fleet, error) {
	if g == nil {
		return nil, errors.New("engine: fleet: nil graph")
	}
	strat, seed := o.Strategy, o.Seed
	if m := o.Manifest; m != nil {
		if err := m.Validate(); err != nil {
			return nil, err
		}
		if m.NumVertices != g.NumVertices() || m.NumEdges != int64(g.NumEdges()) {
			return nil, fmt.Errorf("engine: fleet: %w: manifest describes %d vertices / %d edges, graph has %d / %d",
				ErrManifestMismatch, m.NumVertices, m.NumEdges, g.NumVertices(), g.NumEdges())
		}
		seed = m.Seed
		var err error
		if strat, err = partition.ByName(m.Strategy, m.Seed); err != nil {
			return nil, fmt.Errorf("engine: fleet: %w", err)
		}
	}
	if strat == nil {
		strat = partition.HashEdge{Seed: seed}
	}
	shards, reps, err := o.shape()
	if err != nil {
		return nil, err
	}
	timeout := o.StepTimeout
	switch {
	case timeout < 0:
		timeout = 0
	case timeout == 0:
		timeout = 10 * time.Minute
	}

	// Workers that pinned packed shards hold the columns already: their
	// coordinator builds only the placement it routes by.
	resident := o.Manifest != nil && len(o.Addrs) > 0
	dep, err := cut(g, strat, seed, shards, !resident)
	if err != nil {
		return nil, err
	}
	fp := dep.fingerprint
	if o.Manifest != nil && fp != o.Manifest.Fingerprint {
		return nil, fmt.Errorf("engine: fleet: %w: manifest fingerprint %016x, graph+cut compute %016x",
			ErrManifestMismatch, o.Manifest.Fingerprint, fp)
	}

	f := &Fleet{
		g: g, o: o, shards: shards, replicas: reps, fingerprint: fp, seed: seed, timeout: timeout,
		dep:     dep,
		addrs:   make([]string, shards*reps),
		conns:   make([]*wire.Conn, shards*reps),
		openErr: make([]error, shards*reps),
	}

	switch {
	case len(o.Addrs) > 0:
		f.ship = o.Manifest == nil
		copy(f.addrs, o.Addrs)
	case o.Spawn > 0:
		// connect forks each slot's process; here only the binary is resolved,
		// so a missing one fails the open instead of counting as dead workers.
		f.ship = true
		if f.o.WorkerBin == "" {
			f.o.WorkerBin = "snaple-worker"
		}
		if f.o.WorkerBin, err = exec.LookPath(f.o.WorkerBin); err != nil {
			return nil, fmt.Errorf("engine: fleet: worker binary not found (build cmd/snaple-worker or set WorkerBin): %w", err)
		}
	default:
		// In-process fleet: one loopback listener per worker, each pinned to
		// its shard. Real TCP, real frames — just no separate OS process. The
		// workers open jobs on the cut's shards, not on decoded ones, so the
		// run-offset column is derived here.
		f.inproc = true
		for s := 0; s < shards; s++ {
			res := dep.Shards[s]
			if err := res.IndexRuns(); err != nil {
				f.Close()
				return nil, err
			}
			for r := 0; r < reps; r++ {
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					f.Close()
					return nil, err
				}
				f.stops = append(f.stops, func() { l.Close() })
				go func() { _ = wire.ServeWith(l, nil, wire.ServeOptions{Resident: res}) }()
				f.addrs[s*reps+r] = l.Addr().String()
			}
		}
	}
	if !f.ship {
		dep.Shards = nil // the workers hold them; only a shipping fleet re-sends
	}

	// Connect every worker now: a fingerprint mismatch or a refused shard is
	// deterministic and should fail Open, not the first query. With
	// replication an unreachable worker is degraded capacity, not a failed
	// open; without it there is no replica to absorb the loss.
	for i := range f.conns {
		c, retries, err := f.connect(i)
		f.cumRetries += retries
		if err != nil {
			if wire.IsRemoteError(err) || reps == 1 {
				f.Close()
				return nil, fmt.Errorf("engine: fleet connect %s: %w", f.addrs[i], mismatchTyped(err))
			}
			f.cumDead++
			f.openErr[i] = err
			continue
		}
		f.conns[i] = c
	}
	return f, nil
}

// mismatchTyped makes a worker's fingerprint rejection — which crosses the
// wire as text — satisfy errors.Is(err, ErrManifestMismatch).
func mismatchTyped(err error) error {
	if wire.IsManifestMismatch(err) && !errors.Is(err, ErrManifestMismatch) {
		return fmt.Errorf("%w: %v", ErrManifestMismatch, err)
	}
	return err
}

// connect brings worker slot i up, at Open and again whenever a query finds
// the slot swept: dial with the bounded retry (a spawned fleet's first
// connect forks the process too — one attempt = one fresh process plus its
// hello, and a failed attempt reaps its process before the retry, so a flaky
// worker start never leaks an orphan), then install.
func (f *Fleet) connect(i int) (c *wire.Conn, retries int, err error) {
	dial := func() (err error) {
		c, err = wire.DialWith(f.addrs[i], wire.DialOptions{Compress: f.o.Compress})
		return err
	}
	if f.addrs[i] != "" {
		retries, err = f.o.withRetry(false, dial)
	} else {
		retries, err = f.o.withRetry(true, func() error {
			addr, stop, err := spawnWorker(f.o.WorkerBin)
			if err != nil {
				return err
			}
			f.addrs[i] = addr
			if err := dial(); err != nil {
				stop()
				f.addrs[i] = ""
				return err
			}
			f.stops = append(f.stops, stop)
			return nil
		})
	}
	if err != nil {
		return nil, retries, err
	}
	if err := f.install(c, i); err != nil {
		c.Close()
		return nil, retries, err
	}
	return c, retries, nil
}

// install leaves the worker behind connection i holding its shard, verified:
// a worker that pinned none is shipped it — the one place partition bytes
// cross the wire — and then an empty scoped attach proves the worker holds
// the right shard of the right fleet, exactly as against a resident one. The
// dangling session that attach starts is replaced by the first query's.
func (f *Fleet) install(c *wire.Conn, i int) error {
	_ = c.SetDeadline(time.Now().Add(shipTimeout))
	defer func() { _ = c.SetDeadline(time.Time{}) }()
	shard := i / f.replicas
	if f.ship {
		err := sendAwaitReady(c, &wire.Msg{
			Kind: wire.KindShip, Version: wire.ProtocolVersion,
			Shard: *f.dep.Shards[shard],
		})
		if err != nil {
			return err
		}
	}
	return sendAwaitReady(c, &wire.Msg{
		Kind: wire.KindAttach, Version: wire.ProtocolVersion, Job: handshakeJob,
		Attach: wire.AttachSpec{
			Fingerprint: f.fingerprint,
			Shard:       int32(shard),
			Shards:      int32(f.shards),
			Scoped:      true,
		},
	})
}

// sendAwaitReady is one handshake round trip: a ship or an attach out, the
// worker's Ready (or its typed refusal) back.
func sendAwaitReady(c *wire.Conn, m *wire.Msg) error {
	if err := c.Send(m); err != nil {
		return err
	}
	_, err := c.Expect(wire.KindReady)
	return err
}

// Name implements Backend.
func (f *Fleet) Name() string { return "fleet" }

// FleetInfo reports the standing topology.
func (f *Fleet) FleetInfo() FleetInfo {
	return FleetInfo{
		Shards:      f.shards,
		Replicas:    f.replicas,
		Workers:     f.shards * f.replicas,
		Fingerprint: f.fingerprint,
	}
}

// Stats reports the fleet's cumulative health across all queries so far.
func (f *Fleet) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Stats{
		Engine:      "fleet",
		Workers:     f.shards * f.replicas,
		Replicas:    f.replicas,
		WorkersDead: f.cumDead,
		Failovers:   f.cumFailover,
		DialRetries: f.cumRetries,
	}
}

// Close tears down the standing connections and whatever the fleet started:
// in-process listeners, spawned worker processes. Idempotent.
func (f *Fleet) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	for i, c := range f.conns {
		if c != nil {
			_ = c.Close()
			f.conns[i] = nil
		}
	}
	for _, stop := range f.stops {
		stop()
	}
	return nil
}

// query is one validated prediction request: what a run needs beyond the
// fleet, computed before any connection is touched (or, for Dist, dialed).
type query struct {
	job      wire.JobSpec
	frontier *core.Frontier // nil on a full run
	n        int            // the graph's vertex count
	st       Stats          // the scope fields, filled
}

// newQuery validates cfg against g and computes the frontier closure.
func newQuery(g graph.View, cfg core.Config) (*query, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	job, err := wire.JobFromConfig(cfg)
	if err != nil {
		return nil, err
	}
	frontier, err := core.NewFrontier(g, cfg)
	if err != nil {
		return nil, err
	}
	q := &query{job: job, frontier: frontier, n: g.NumVertices()}
	q.st.FrontierVertices = frontier.Size()
	q.st.ScoredVertices = g.NumVertices()
	if frontier != nil {
		q.st.ScoredVertices = frontier.Pred.Len()
	}
	return q, nil
}

// Predict implements Backend. The graph must be the one the fleet was opened
// with: the workers' shards were cut from it, and the fingerprint handshake
// (not this call) is what proves they still agree.
func (f *Fleet) Predict(g graph.View, cfg core.Config) (core.Predictions, Stats, error) {
	return dense(f, g, cfg)
}

// PredictScoped implements ScopedBackend. The run is sparse, and so is a
// scoped result: neither allocates anything sized by the graph. Cancelling
// ctx closes the query's connections; they are redialed lazily on the next
// query, so a cancelled query degrades latency once, never the fleet.
func (f *Fleet) PredictScoped(ctx context.Context, g graph.View, cfg core.Config) (core.ScopedPredictions, Stats, error) {
	// An identity check, after unwrapping clean overlays of the same CSR: the
	// shards were cut from f.g, and any other view — a mutated one above all
	// — would be answered from the wrong edges.
	if g != f.g {
		a, aok := graph.AsCSR(g)
		b, bok := graph.AsCSR(f.g)
		if !aok || !bok || a != b {
			return core.ScopedPredictions{}, Stats{Engine: "fleet"}, errors.New("engine: fleet: predict over a view the fleet was not opened with — it serves the cut it made at open; compact a mutated view and reopen")
		}
	}
	q, err := newQuery(g, cfg)
	if err != nil {
		return core.ScopedPredictions{}, Stats{Engine: "fleet"}, err
	}
	preds, st, err := f.run(ctx, q)
	return q.result(preds, st, err)
}

// result pairs a run's predictions with the vertices they answer: one row
// per vertex on a full run (nil Vertices), one per deduplicated source on a
// scoped one. A vertex no master reported has a nil row.
func (q *query) result(preds []wire.VertexPreds, st Stats, err error) (core.ScopedPredictions, Stats, error) {
	if err != nil {
		return core.ScopedPredictions{}, st, err
	}
	var sp core.ScopedPredictions
	row := func(v graph.VertexID) (int, bool) { return int(v), true }
	if q.frontier == nil {
		sp.Rows = make([][]core.Prediction, q.n)
	} else {
		sp.Vertices = q.frontier.Pred.Members()
		sp.Rows = make([][]core.Prediction, len(sp.Vertices))
		row = func(v graph.VertexID) (int, bool) { return slices.BinarySearch(sp.Vertices, v) }
	}
	for _, vp := range preds {
		if i, ok := row(vp.V); ok {
			sp.Rows[i] = vp.Preds
		}
	}
	return sp, st, nil
}

// run executes one validated query over the standing connections and returns
// the masters' predictions, one entry per vertex that has any.
func (f *Fleet) run(ctx context.Context, q *query) ([]wire.VertexPreds, Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st := q.st
	st.Engine, st.Workers, st.Replicas = "fleet", f.shards*f.replicas, f.replicas

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, st, errors.New("engine: fleet: closed")
	}

	// Route: which shards does the closure touch? Only their replica groups
	// see this query — an untouched shard's workers receive no frame at all.
	touched, routes, scopes := f.route(q.frontier)
	if len(touched) == 0 {
		// Isolated sources: the closure holds no edge anywhere, and no
		// source has a prediction.
		return nil, st, nil
	}
	st.Workers = len(touched) * f.replicas
	st.ReplicationFactor = routes.rf

	// Standing connections for the touched groups, reconnecting any that a
	// previous query's failure (or cancellation) swept. standing[i] is run
	// connection i's slot in f.conns.
	standing := make([]int, 0, len(touched)*f.replicas)
	for _, s := range touched {
		for r := 0; r < f.replicas; r++ {
			standing = append(standing, int(s)*f.replicas+r)
		}
	}
	conns := make([]*wire.Conn, len(standing))
	dialErrs := make([]error, len(standing))
	for i, src := range standing {
		if f.conns[src] == nil {
			if err := f.openErr[src]; err != nil {
				// Open went through the whole retry ladder on this worker
				// moments ago; report that verdict once instead of paying the
				// ladder twice, and reconnect from the next query on.
				dialErrs[i], f.openErr[src] = err, nil
				continue
			}
			c, retries, err := f.connect(src)
			f.cumRetries += retries
			st.DialRetries += retries
			if err != nil {
				dialErrs[i] = fmt.Errorf("engine: fleet connect %s: %w", f.addrs[src], err)
				continue
			}
			f.conns[src] = c
		}
		conns[i] = f.conns[src]
	}

	run := newDistRun(routes, conns, dialErrs, f.replicas, f.timeout)
	// Sweep: connections the run declared dead are closed already; forget
	// them so the next query reconnects, and disarm the survivors' deadlines
	// so a standing connection never trips a stale timer between queries. A
	// cancellation closes them all, so then none stands, but only the ones
	// that died of their own fault count as dead.
	defer func() {
		for i, src := range standing {
			switch {
			case f.conns[src] == nil:
			case run.died(i):
				f.conns[src] = nil
				f.cumDead++
			case ctx.Err() != nil:
				_ = f.conns[src].Close()
				f.conns[src] = nil
			default:
				_ = f.conns[src].SetDeadline(time.Time{})
			}
		}
		f.cumFailover += run.failoverCount()
	}()

	// Attach is the job opener: for an unscoped query a fixed-size frame, for
	// a scoped one the closure's columns; never partition columns.
	preds, results, err := run.predict(ctx, f.g, &st, func(i int) *wire.Msg {
		p := run.partOf[i]
		a := scopes[p]
		a.Fingerprint, a.Shard, a.Shards, a.Scoped = f.fingerprint, touched[p], int32(f.shards), q.frontier != nil
		return &wire.Msg{Kind: wire.KindAttach, Version: wire.ProtocolVersion, Job: q.job, Attach: a}
	})
	for p := range results {
		ws := &results[p].Stats
		if f.inproc {
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
	return preds, st, mismatchTyped(err)
}

// routing is one query's view of the cut, what the superstep driver runs
// over: how many shards take part (numbered densely in touched order) and,
// per vertex, the one mastering it and the ones hosting it. A full run routes
// by the cut itself; a scoped one by its own re-election over the closure,
// rank-indexed over the closure's sorted members, and also carries the
// frontier and the view of the superstep-skip test.
type routing struct {
	parts int
	cut   *partition.Cut // full run: every shard takes part
	// Scoped: per closure member (frontier.Trunc's i-th), the taking part
	// holding its master (-1 when no taking-part shard hosts it) and, when
	// several host it, its taking-part hosts hostParts[hostAt[i]:hostAt[i+1]].
	masterPart []int32
	hostAt     []int32
	hostParts  []int32
	rf         float64 // replication factor over the taking-part shards
	frontier   *core.Frontier
	g          graph.View
}

// roles returns the taking part holding v's master copy (-1 for none) and the
// taking parts replicating v, ascending; a vertex with a single host may get
// no hosts, since only its mirrors are ever routed to. A scoped routing finds
// v among the closure's members from the cursor at (core.SearchFrom), which
// the caller keeps per source connection.
func (r *routing) roles(v graph.VertexID, at *int) (master int32, hosts []int32) {
	if r.cut != nil {
		hosts, _ = r.cut.Replicas(v)
		return r.cut.Master(v), hosts
	}
	i, ok := core.SearchFrom(r.frontier.Trunc.Members(), at, v)
	if !ok {
		return -1, nil
	}
	return r.masterPart[i], r.hostParts[r.hostAt[i]:r.hostAt[i+1]]
}

// stepHasWork reports whether any shard gathers anything in step: some vertex
// of the step's frontier set has an out-edge (every such edge lies on a
// touched shard). Always true on a full run.
func (r *routing) stepHasWork(step core.DistStep) bool {
	return r.frontier.StepHasWork(step, r.g)
}

// route computes the query's touched shard set and the routing the superstep
// driver runs over. A full (unscoped) run touches every shard and reuses the
// roles baked into the shards at the cut. A scoped run touches exactly the
// shards holding a closure out-edge, then re-elects each closure vertex's
// master among its touched hosts — the full-run master may sit on an
// untouched shard, and any consistent election yields identical results, so
// the restricted draw is both necessary and safe. Each touched shard gets the
// vertex, scope-mask and role columns its attach carries, ascending by vertex
// as the worker requires (a full run's attaches carry none); the scoped
// routing is indexed by the closure's members, so nothing here is sized by
// the graph.
func (f *Fleet) route(frontier *core.Frontier) ([]int32, *routing, []wire.AttachSpec) {
	dep := f.dep
	if frontier == nil {
		touched := make([]int32, f.shards)
		for s := range touched {
			touched[s] = int32(s)
		}
		return touched, &routing{parts: f.shards, cut: dep.Cut, rf: dep.ReplicationFactor()},
			make([]wire.AttachSpec, f.shards)
	}

	members := frontier.Trunc.Members()
	touchedSet := make([]bool, f.shards)
	for _, u := range members {
		for _, s := range dep.Sources(u) {
			touchedSet[s] = true
		}
	}
	groupOf := make([]int32, f.shards)
	var touched []int32
	for s, t := range touchedSet {
		if t {
			groupOf[s] = int32(len(touched))
			touched = append(touched, int32(s))
		} else {
			groupOf[s] = -1
		}
	}
	if len(touched) == 0 {
		return nil, nil, nil
	}

	rt := &routing{
		parts:      len(touched),
		masterPart: make([]int32, len(members)),
		hostAt:     make([]int32, len(members)+1),
		frontier:   frontier,
		g:          f.g,
	}
	scopes := make([]wire.AttachSpec, len(touched))
	hosts := make([]int32, 0, 8)
	replicas, present := 0, 0
	for i, v := range members {
		rt.masterPart[i] = -1
		rt.hostAt[i+1] = rt.hostAt[i]
		hosts = hosts[:0]
		all, _ := dep.Replicas(v)
		for _, s := range all {
			if touchedSet[s] {
				hosts = append(hosts, s)
			}
		}
		if len(hosts) == 0 {
			// No touched shard holds v: no gather can emit a partial for it
			// (a partial for v only arises on a shard holding one of v's
			// edges, and such shards are touched), so v needs no master.
			continue
		}
		// The cut's election, restricted to the touched hosts.
		mp := partition.ElectMaster(hosts, f.seed, v)
		rt.masterPart[i] = groupOf[mp]
		remote := len(hosts) > 1
		mask := frontier.ScopeMask(v)
		for _, s := range hosts {
			var role uint8
			if s == mp {
				role |= graph.RoleMaster
			}
			if remote {
				role |= graph.RoleRemote
			}
			a := &scopes[groupOf[s]]
			a.Verts, a.Masks, a.Roles = append(a.Verts, v), append(a.Masks, mask), append(a.Roles, role)
		}
		if remote {
			for _, s := range hosts {
				rt.hostParts = append(rt.hostParts, groupOf[s])
			}
			rt.hostAt[i+1] = int32(len(rt.hostParts))
		}
		replicas += len(hosts)
		present++
	}
	rt.rf = float64(replicas) / float64(present)
	return touched, rt, scopes
}

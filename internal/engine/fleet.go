package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"sync"
	"time"

	"snaple/internal/core"
	"snaple/internal/graph"
	"snaple/internal/partition"
	"snaple/internal/randx"
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
// fingerprints mean the worker's resident columns are byte-equal to what a
// fresh ship would have produced.
func FleetFingerprint(g *graph.Digraph, shards int, strategy string, seed uint64) uint64 {
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

// PackShards vertex-cuts g into shards resident partitions using the same
// deployment logic (and the same deterministic master election) a full
// distributed run would compute, so a fleet attached to the packed shards is
// bit-identical to one that shipped partitions per run. The manifest's Files
// column is left empty — the packer names the files.
func PackShards(g *graph.Digraph, strat partition.Strategy, seed uint64, shards int) ([]*graph.ShardFile, *graph.Manifest, error) {
	if shards <= 0 {
		return nil, nil, fmt.Errorf("engine: pack: non-positive shard count %d", shards)
	}
	if strat == nil {
		strat = partition.HashEdge{Seed: seed}
	}
	dep, err := Dist{Strategy: strat, Seed: seed}.deploy(g, shards, nil)
	if err != nil {
		return nil, nil, err
	}
	fp := FleetFingerprint(g, shards, strat.Name(), seed)
	files := make([]*graph.ShardFile, shards)
	man := &graph.Manifest{
		Fingerprint: fp,
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
	for p := range dep.parts {
		wp := &dep.parts[p]
		files[p] = &graph.ShardFile{
			Fingerprint: fp,
			Shard:       p,
			Shards:      shards,
			NumVertices: g.NumVertices(),
			Locals:      wp.Locals,
			Deg:         wp.Deg,
			EdgeSrc:     wp.EdgeSrc,
			EdgeDst:     wp.EdgeDst,
			IsMaster:    wp.IsMaster,
			HasRemote:   wp.HasRemote,
		}
		man.Locals[p] = int64(len(wp.Locals))
		man.Edges[p] = int64(len(wp.EdgeSrc))
		nm := int64(0)
		for _, m := range wp.IsMaster {
			if m {
				nm++
			}
		}
		man.Masters[p] = nm
	}
	return files, man, nil
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

// FleetOptions configures OpenFleet.
type FleetOptions struct {
	// Addrs connects to resident snaple-worker processes, shard-major:
	// Addrs[s*Replicas+r] is replica r of shard s. Its length must be
	// Shards*Replicas for the manifest's (or InProc's) shard count. Empty
	// means an in-process resident fleet (loopback listeners pinned to
	// in-memory shards) — the zero-config path tests and single-machine
	// serving use.
	Addrs []string
	// Manifest pins the fleet identity: shard count, cut strategy and seed,
	// and the fingerprint every worker must present. Nil derives all three
	// from InProc/Strategy/Seed instead (in-process fleets only).
	Manifest *graph.Manifest
	// InProc is the shard count of an in-process fleet when no Manifest is
	// given (0 = 2).
	InProc int
	// Replicas is the per-shard replica count (0 or 1 = no replication).
	Replicas int
	// Strategy/Seed are the cut parameters when no Manifest pins them
	// (nil = partition.HashEdge{Seed}).
	Strategy partition.Strategy
	Seed     uint64
	// StepTimeout/DialAttempts/DialBackoff/Compress behave exactly as on
	// Dist.
	StepTimeout  time.Duration
	DialAttempts int
	DialBackoff  time.Duration
	Compress     bool
}

// Fleet is the resident-partition coordinator: workers pinned to packed
// shards, standing connections, and per-query routing that contacts only the
// replica groups whose shards intersect the query's frontier closure. Where
// Dist re-partitions and re-ships the graph on every Predict, a Fleet pays
// for partitioning once at Open and thereafter attaches by fingerprint — the
// per-query "ship" is a fixed-size handshake (plus, on scoped queries, the
// sparse per-closure-vertex roles), never partition bytes.
//
// A Fleet is safe for concurrent use; queries are serialised internally over
// the standing connections. Results are bit-identical to every other backend
// for the same (graph, Config) — the resident cut is just another placement,
// and placement never changes results.
type Fleet struct {
	g           *graph.Digraph
	shards      int
	replicas    int
	fingerprint uint64
	seed        uint64
	timeout     time.Duration
	compress    bool
	dialAtt     int
	dialBack    time.Duration

	// Routing state derived from the cut at Open.
	masterFull []int32   // per vertex: shard mastering it on a full run (-1 = absent)
	mirrorFull [][]int32 // per vertex: non-master host shards, ascending
	hostShards [][]int32 // per vertex: all host shards, ascending
	srcShards  [][]int32 // per vertex: shards holding its out-edges, ascending
	deg        []int32   // per vertex: full out-degree (superstep-skip table)

	addrs     []string // one per connection, shard-major
	listeners []net.Listener
	inproc    bool

	mu          sync.Mutex
	conns       []*wire.Conn // nil: never dialed or swept after death
	closed      bool
	cumDead     int
	cumFailover int
	cumRetries  int
	queries     int64
}

// handshakeJob is a minimal valid job used for the Open-time fingerprint
// verification attach; the session it starts is replaced by the first real
// query's attach.
var handshakeJob = wire.JobSpec{Score: "counter", Alpha: 0.9, K: 1, Paths: 2}

// OpenFleet stands up (or connects to) a resident fleet for g and verifies
// every worker's resident shard against the fleet fingerprint. With a
// Manifest the graph must match it exactly — vertex count, edge count and
// fingerprint — and every worker presenting a different fingerprint is
// rejected with ErrManifestMismatch. The returned Fleet holds standing
// connections until Close.
func OpenFleet(g *graph.Digraph, o FleetOptions) (*Fleet, error) {
	if g == nil {
		return nil, errors.New("engine: fleet: nil graph")
	}
	reps := o.Replicas
	if reps <= 0 {
		reps = 1
	}
	strat := o.Strategy
	seed := o.Seed
	shards := o.InProc
	if o.Manifest != nil {
		m := o.Manifest
		if err := m.Validate(); err != nil {
			return nil, err
		}
		if m.NumVertices != g.NumVertices() || m.NumEdges != int64(g.NumEdges()) {
			return nil, fmt.Errorf("engine: fleet: %w: manifest describes %d vertices / %d edges, graph has %d / %d",
				ErrManifestMismatch, m.NumVertices, m.NumEdges, g.NumVertices(), g.NumEdges())
		}
		shards = m.Shards
		seed = m.Seed
		var err error
		if strat, err = partition.ByName(m.Strategy, m.Seed); err != nil {
			return nil, fmt.Errorf("engine: fleet: %w", err)
		}
	} else if len(o.Addrs) > 0 {
		if len(o.Addrs)%reps != 0 {
			return nil, fmt.Errorf("engine: fleet: %d addresses do not divide into replica groups of %d", len(o.Addrs), reps)
		}
		shards = len(o.Addrs) / reps
	}
	if shards <= 0 {
		shards = 2
	}
	if strat == nil {
		strat = partition.HashEdge{Seed: seed}
	}
	if len(o.Addrs) > 0 && len(o.Addrs) != shards*reps {
		return nil, fmt.Errorf("engine: fleet: %d addresses for %d shards x %d replicas", len(o.Addrs), shards, reps)
	}

	fp := FleetFingerprint(g, shards, strat.Name(), seed)
	if o.Manifest != nil && fp != o.Manifest.Fingerprint {
		return nil, fmt.Errorf("engine: fleet: %w: manifest fingerprint %016x, graph+cut compute %016x",
			ErrManifestMismatch, o.Manifest.Fingerprint, fp)
	}

	dep, err := Dist{Strategy: strat, Seed: seed}.deploy(g, shards, nil)
	if err != nil {
		return nil, err
	}

	f := &Fleet{
		g: g, shards: shards, replicas: reps, fingerprint: fp, seed: seed,
		timeout:  Dist{StepTimeout: o.StepTimeout}.stepTimeout(),
		compress: o.Compress,
		dialAtt:  o.DialAttempts,
		dialBack: o.DialBackoff,

		masterFull: dep.masterPart,
		mirrorFull: dep.mirrors,
		deg:        make([]int32, g.NumVertices()),
		hostShards: make([][]int32, g.NumVertices()),
		srcShards:  make([][]int32, g.NumVertices()),
		conns:      make([]*wire.Conn, shards*reps),
	}
	for v := range f.deg {
		f.deg[v] = int32(g.OutDegree(graph.VertexID(v)))
	}
	for v, mp := range dep.masterPart {
		if mp < 0 {
			continue
		}
		hosts := append([]int32{mp}, dep.mirrors[v]...)
		sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
		f.hostShards[v] = hosts
	}
	// Which shards hold each vertex's out-edges: the query router's index.
	// The assignment is recomputed from the (deterministic) strategy so
	// deploy's per-shard edge lists don't have to be retained.
	assign, err := strat.Partition(g, shards)
	if err != nil {
		return nil, err
	}
	{
		i := 0
		g.ForEachEdge(func(u, v graph.VertexID) {
			p := assign.EdgeTo[i]
			i++
			row := f.srcShards[u]
			for _, s := range row {
				if s == p {
					return
				}
			}
			f.srcShards[u] = append(row, p)
		})
		for _, row := range f.srcShards {
			sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		}
	}

	if len(o.Addrs) > 0 {
		f.addrs = append([]string(nil), o.Addrs...)
	} else {
		// In-process resident fleet: one loopback listener per worker, each
		// pinned to its shard's columns. Real TCP, real frames — just no
		// separate OS process.
		f.inproc = true
		f.addrs = make([]string, shards*reps)
		for s := 0; s < shards; s++ {
			res := &wire.ResidentShard{Fingerprint: fp, Shards: shards, Part: dep.parts[s]}
			for r := 0; r < reps; r++ {
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					f.Close()
					return nil, err
				}
				f.listeners = append(f.listeners, l)
				go func() { _ = wire.ServeWith(l, nil, wire.ServeOptions{Resident: res}) }()
				f.addrs[s*reps+r] = l.Addr().String()
			}
		}
	}

	// Dial and verify every worker now: a fingerprint mismatch is
	// deterministic and should fail Open, not the first query. With
	// replication an unreachable worker is degraded capacity, not a failed
	// open; without it there is no replica to absorb the loss.
	for i := range f.conns {
		c, retries, err := f.dial(f.addrs[i])
		f.cumRetries += retries
		if err == nil {
			err = f.verify(c, i)
			if err != nil {
				c.Close()
				c = nil
			}
		}
		if err != nil {
			if wire.IsManifestMismatch(err) || wire.IsRemoteError(err) || reps == 1 {
				f.Close()
				if wire.IsManifestMismatch(err) && !errors.Is(err, ErrManifestMismatch) {
					err = fmt.Errorf("%w: %v", ErrManifestMismatch, err)
				}
				return nil, fmt.Errorf("engine: fleet attach %s: %w", f.addrs[i], err)
			}
			f.cumDead++
			continue
		}
		f.conns[i] = c
	}
	return f, nil
}

// dial connects to one worker with the configured bounded retry.
func (f *Fleet) dial(addr string) (*wire.Conn, int, error) {
	d := Dist{DialAttempts: f.dialAtt, DialBackoff: f.dialBack}
	var c *wire.Conn
	retries, err := d.withRetry(false, func() error {
		var derr error
		c, derr = wire.DialWith(addr, wire.DialOptions{Compress: f.compress})
		return derr
	})
	if err != nil {
		return nil, retries, err
	}
	return c, retries, nil
}

// verify runs the Open-time handshake on connection i: an empty scoped
// attach that proves the worker is resident for the right shard of the right
// fleet. The dangling session it starts is replaced by the first query.
func (f *Fleet) verify(c *wire.Conn, i int) error {
	_ = c.SetDeadline(time.Now().Add(shipTimeout))
	defer func() { _ = c.SetDeadline(time.Time{}) }()
	err := c.Send(&wire.Msg{
		Kind: wire.KindAttach, Version: wire.ProtocolV3, Job: handshakeJob,
		Attach: wire.AttachSpec{
			Fingerprint: f.fingerprint,
			Shard:       int32(i / f.replicas),
			Shards:      int32(f.shards),
			Scoped:      true,
		},
	})
	if err != nil {
		return err
	}
	_, err = c.Expect(wire.KindReady)
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

// Close tears down the standing connections (and, for an in-process fleet,
// its listeners). Idempotent.
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
	for _, l := range f.listeners {
		_ = l.Close()
	}
	return nil
}

// Predict implements Backend. The graph must be the one the fleet was opened
// with: the workers' resident shards were cut from it, and the fingerprint
// handshake (not this call) is what proves they still agree.
func (f *Fleet) Predict(g graph.View, cfg core.Config) (core.Predictions, Stats, error) {
	return f.PredictCtx(context.Background(), g, cfg)
}

// PredictCtx implements ContextBackend. Cancelling ctx closes the query's
// connections; they are redialed lazily on the next query, so a cancelled
// query degrades latency once, never the fleet.
func (f *Fleet) PredictCtx(ctx context.Context, g graph.View, cfg core.Config) (core.Predictions, Stats, error) {
	st := Stats{Engine: "fleet", Workers: f.shards * f.replicas, Replicas: f.replicas}
	if csr, ok := graph.AsCSR(g); !ok {
		return nil, st, errors.New("engine: fleet: predict over a mutated view — the fleet serves a frozen pack; compact first")
	} else if csr != f.g {
		return nil, st, errors.New("engine: fleet: predict over a graph the fleet was not opened with")
	}
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, st, err
	}
	job, err := wire.JobFromConfig(cfg)
	if err != nil {
		return nil, st, err
	}
	frontier, err := core.NewFrontier(g, cfg)
	if err != nil {
		return nil, st, err
	}
	st.FrontierVertices = frontier.Size()
	st.ScoredVertices = g.NumVertices()
	if frontier != nil {
		st.ScoredVertices = frontier.Pred.Len()
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, st, errors.New("engine: fleet: closed")
	}
	f.queries++

	// Route: which shards does the closure touch? Only their replica groups
	// see this query — an untouched shard's workers receive no frame at all.
	touched, dep, entries := f.route(frontier)
	if len(touched) == 0 {
		// Isolated sources: the closure holds no edge anywhere.
		return make(core.Predictions, g.NumVertices()), st, nil
	}
	st.Workers = len(touched) * f.replicas
	st.ReplicationFactor = dep.replicationFactor()

	// Standing connections for the touched groups, redialing any that a
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
			c, retries, derr := f.dial(f.addrs[src])
			f.cumRetries += retries
			st.DialRetries += retries
			if derr != nil {
				dialErrs[i] = fmt.Errorf("engine: fleet dial %s: %w", f.addrs[src], derr)
				continue
			}
			f.conns[src] = c
		}
		conns[i] = f.conns[src]
	}

	run := newDistRun(dep, conns, dialErrs, f.replicas, f.timeout)
	// Sweep: connections the run declared dead are closed already; forget
	// them so the next query redials, and disarm the survivors' deadlines so
	// a standing connection never trips a stale timer between queries.
	defer func() {
		for i, src := range standing {
			if f.conns[src] == nil {
				continue
			}
			if !run.isAlive(i) {
				f.conns[src] = nil
				f.cumDead++
			} else {
				_ = f.conns[src].SetDeadline(time.Time{})
			}
		}
		f.cumFailover += run.failoverCount()
	}()

	// Attach is the fingerprint handshake that replaces the ship phase: for
	// an unscoped query a fixed-size frame, for a scoped one the sparse
	// closure roles; never partition columns.
	pred, _, err := run.predict(ctx, g, cfg.Paths, &st, "attach", func(i int) *wire.Msg {
		p := run.partOf[i]
		return &wire.Msg{
			Kind: wire.KindAttach, Version: wire.ProtocolV3, Job: job,
			Attach: wire.AttachSpec{
				Fingerprint: f.fingerprint,
				Shard:       touched[p],
				Shards:      int32(f.shards),
				Scoped:      frontier != nil,
				Entries:     entries[p],
			},
		}
	})
	if wire.IsManifestMismatch(err) {
		err = fmt.Errorf("%w: %v", ErrManifestMismatch, err)
	}
	return pred, st, err
}

// route computes the query's touched shard set and the synthetic deployment
// the superstep router runs over. A full (unscoped) run touches every shard
// and reuses the roles baked at pack time. A scoped run touches exactly the
// shards holding a closure out-edge, then re-elects each closure vertex's
// master among its touched hosts — the pack-time master may sit on an
// untouched shard, and any consistent election yields identical results, so
// the restricted draw is both necessary and safe. The per-shard entries are
// the sparse roles the attach carries.
func (f *Fleet) route(frontier *core.Frontier) ([]int32, *deployment, [][]wire.ScopeEntry) {
	if frontier == nil {
		touched := make([]int32, f.shards)
		for s := range touched {
			touched[s] = int32(s)
		}
		dep := &deployment{
			parts:      make([]wire.Partition, f.shards),
			masterPart: f.masterFull,
			mirrors:    f.mirrorFull,
		}
		for v, mp := range f.masterFull {
			if mp >= 0 {
				dep.replicas += len(f.hostShards[v])
				dep.present++
			}
		}
		return touched, dep, make([][]wire.ScopeEntry, f.shards)
	}

	touchedSet := make([]bool, f.shards)
	for _, u := range frontier.Trunc.Members() {
		for _, s := range f.srcShards[u] {
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

	dep := &deployment{
		parts:      make([]wire.Partition, len(touched)),
		masterPart: make([]int32, f.g.NumVertices()),
		mirrors:    make([][]int32, f.g.NumVertices()),
		frontier:   frontier,
		deg:        f.deg,
	}
	for v := range dep.masterPart {
		dep.masterPart[v] = -1
	}
	entries := make([][]wire.ScopeEntry, len(touched))
	hosts := make([]int32, 0, 8)
	for _, v := range frontier.Trunc.Members() {
		hosts = hosts[:0]
		for _, s := range f.hostShards[v] {
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
		// The same keyed draw the shipped deployment uses, restricted to the
		// touched hosts — deterministic, and placement never changes results.
		mp := hosts[randx.Uint64n(uint64(len(hosts)), f.seed, uint64(v), 0xA5)]
		dep.masterPart[v] = groupOf[mp]
		remote := len(hosts) > 1
		mask := frontier.ScopeMask(v)
		for _, s := range hosts {
			var role uint8
			if s == mp {
				role |= wire.RoleMaster
			}
			if remote {
				role |= wire.RoleRemote
			}
			entries[groupOf[s]] = append(entries[groupOf[s]], wire.ScopeEntry{V: v, Mask: mask, Role: role})
		}
		if remote {
			mirrors := make([]int32, 0, len(hosts)-1)
			for _, s := range hosts {
				if s != mp {
					mirrors = append(mirrors, groupOf[s])
				}
			}
			dep.mirrors[v] = mirrors
		}
		dep.replicas += len(hosts)
		dep.present++
	}
	return touched, dep, entries
}

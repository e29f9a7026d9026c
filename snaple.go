// Package snaple is a Go implementation of SNAPLE (Kermarrec, Taïani,
// Tirado: "Scaling Out Link Prediction with SNAPLE: 1 Billion Edges and
// Beyond", MIDDLEWARE 2015 / Inria RR-454): a link-prediction framework for
// gather-apply-scatter (GAS) graph engines that scores candidate edges by
// combining and aggregating raw similarities along 2-hop paths instead of
// shipping neighbourhoods across the cluster.
//
// The package is a facade over the repository's internals:
//
//   - the SNAPLE scoring framework: Algorithm 2 written once as a kernel set
//     that every backend schedules, plus the naive BASELINE comparison
//     system (internal/core),
//   - a pluggable execution layer (internal/engine) with four backends
//     behind one interface: "local", a parallel shared-memory engine that
//     shards vertex ranges over goroutines; "serial", the single-threaded
//     reference loop; "sim", the paper's GAS engine over a simulated
//     cluster with vertex-cut placement, master/mirror replication and cost
//     accounting (internal/gas, internal/partition, internal/cluster); and
//     "dist", the same supersteps across real worker processes over TCP
//     (internal/wire, cmd/snaple-worker) with traffic measured on the wire
//     — one coordinator, engine.Fleet, held open by a Cluster or opened for
//     a single run by Predict and PredictDistributed,
//   - a Cassovary-style random-walk comparator (internal/walk),
//   - synthetic dataset analogs and the paper's evaluation protocol
//     (internal/gen, internal/eval),
//   - a graph I/O subsystem (internal/graph): streaming parallel
//     edge-list ingestion with no O(E) intermediate, plus versioned,
//     checksummed binary CSR snapshots (.sgr) that load with zero
//     per-edge work — pack once with `snaple pack`, start every later
//     run at disk speed,
//   - an online serving layer (internal/serve, cmd/snaple-serve): every
//     backend accepts a query frontier (Options.Sources, PredictFor) and
//     computes only the ≤2-hop closure the sources' scores depend on, and
//     the server batches concurrent HTTP requests into one frontier run
//     per tick with an LRU result cache in front.
//
// All four backends produce bit-identical predictions for the same
// Options; they differ only in speed and in which costs they report.
//
// Quick start:
//
//	g, _ := snaple.Dataset("livejournal", 0.2, 42)
//	split, _ := snaple.NewSplit(g, 1, 42)
//	preds, _ := snaple.Predict(split.Train, snaple.Options{Score: "linearSum", KLocal: 20})
//	fmt.Printf("recall@5 = %.3f\n", snaple.Recall(preds, split))
package snaple

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"snaple/internal/cluster"
	"snaple/internal/core"
	"snaple/internal/engine"
	"snaple/internal/eval"
	"snaple/internal/gen"
	"snaple/internal/graph"
	"snaple/internal/partition"
	"snaple/internal/walk"
)

// Re-exported fundamental types. The aliases point at internal packages so
// the whole repository shares one set of types.
type (
	// Graph is a compact immutable directed graph (CSR).
	Graph = graph.Digraph
	// GraphView is read-only adjacency access over either a frozen Graph
	// or a live mutating one (Delta/Live): every Predict entry point
	// accepts it.
	GraphView = graph.View
	// Delta is an immutable mutation overlay over a Graph: a consistent
	// point-in-time view of a live graph (see Live.View).
	Delta = graph.Delta
	// Live owns a mutating graph: Apply batches edge mutations
	// copy-on-write under an epoch counter, View returns consistent
	// snapshots, Compact folds the overlay back into a fresh CSR.
	Live = graph.Live
	// VertexID identifies a vertex (dense, 0-based).
	VertexID = graph.VertexID
	// Edge is a directed edge.
	Edge = graph.Edge
	// Prediction is one recommended edge target with its score.
	Prediction = core.Prediction
	// Predictions holds per-vertex prediction lists indexed by vertex.
	Predictions = core.Predictions
	// Split is a train/test split under the paper's protocol.
	Split = eval.Split
)

// Options configures a SNAPLE prediction (Algorithm 2's inputs).
type Options struct {
	// Score names a Table 3 configuration (default "linearSum"):
	// linearSum, euclSum, geomSum, PPR, counter, linearMean, euclMean,
	// geomMean, linearGeom, euclGeom, geomGeom.
	Score string
	// Alpha parameterises the linear combinator (default 0.9).
	Alpha float64
	// K is the number of predictions per vertex (default 5).
	K int
	// KLocal bounds the per-vertex relay sample (0 = unlimited).
	KLocal int
	// ThrGamma is the neighbourhood truncation threshold (0 = unlimited;
	// the paper defaults to 200).
	ThrGamma int
	// Policy selects relays: "max" (default), "min" or "rnd" (Section 5.6).
	Policy string
	// Paths is the maximum explored path length: 2 (default, the paper's
	// setting) or 3 (the footnote-2 extension).
	Paths int
	// Seed drives truncation and the rnd policy.
	Seed uint64
	// Engine selects the execution backend used by Predict: "local" (the
	// default: parallel shared-memory), "serial" (the single-threaded
	// reference), "sim" (the GAS engine on a default single-node simulated
	// cluster) or "dist" (real worker processes over TCP, served in-process
	// on loopback by default; use PredictDistributed to configure either
	// deployment). All backends return bit-identical predictions.
	Engine string
	// Workers bounds the goroutines of the chosen backend (0 = GOMAXPROCS).
	// For "dist" it is the worker count (0 = 2 loopback workers).
	Workers int
	// Sources optionally scopes the run to a query frontier: when
	// non-empty, only these vertices receive predictions and every backend
	// restricts its work to the exact closure their predictions depend on
	// (2 hops out; 3 for Paths=3). The results are bit-identical to the
	// full run's, filtered to the sources. This is the online per-user
	// shape — see PredictFor and cmd/snaple-serve.
	Sources []VertexID
}

func (o Options) toCore() (core.Config, error) {
	if o.Score == "" {
		o.Score = "linearSum"
	}
	if o.Alpha == 0 {
		o.Alpha = 0.9
	}
	spec, err := core.ScoreByName(o.Score, o.Alpha)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Score:    spec,
		K:        o.K,
		KLocal:   o.KLocal,
		ThrGamma: o.ThrGamma,
		Paths:    o.Paths,
		Seed:     o.Seed,
		Sources:  o.Sources,
	}
	cfg.Policy, err = core.PolicyByName(o.Policy)
	if err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// ScoreNames lists the Table 3 scoring configurations.
func ScoreNames() []string { return core.ScoreNames() }

// EngineNames lists the execution backends accepted by Options.Engine.
func EngineNames() []string { return engine.Names() }

// Predict runs SNAPLE in-process on the backend selected by opts.Engine
// (parallel shared-memory by default). Predictions are bit-identical across
// backends and worker counts.
func Predict(g GraphView, opts Options) (Predictions, error) {
	preds, _, err := PredictStats(g, opts)
	return preds, err
}

// PredictFor answers the online question — "top-k for these vertices" —
// without a full-graph pass: it runs a query-scoped prediction for sources
// on the backend selected by opts.Engine, computing only the ≤2-hop closure
// the sources' scores depend on. The returned Predictions are indexed by
// vertex like Predict's, with non-source rows nil, and are bit-identical to
// the full run's rows for the same Options. It is the one-shot form of what
// cmd/snaple-serve serves continuously.
func PredictFor(g GraphView, sources []VertexID, opts Options) (Predictions, error) {
	opts.Sources = sources
	return Predict(g, opts)
}

// PredictForContext is PredictFor under a context deadline or cancellation.
// On the dist backend a cancelled context closes every worker connection, so
// a blocked superstep exchange fails promptly with ctx.Err() and the
// resident workers stay reusable; the in-memory backends finish their steps
// in microseconds and simply ignore ctx.
func PredictForContext(ctx context.Context, g GraphView, sources []VertexID, opts Options) (Predictions, error) {
	opts.Sources = sources
	cfg, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	be, err := engine.New(opts.Engine, opts.Workers, opts.Seed)
	if err != nil {
		return nil, err
	}
	preds, _, err := engine.PredictWithContext(ctx, be, g, cfg)
	return preds, err
}

// EngineStats reports what a prediction run cost: wall-clock time, ingest
// throughput (EdgesPerSec), heap churn (AllocBytes/AllocObjects, local and
// serial backends) and the simulated-cluster costs (sim backend only).
type EngineStats = engine.Stats

// PredictStats is Predict with the backend's cost report, for callers that
// track the performance trajectory (cmd/snaple, cmd/snaple-bench).
func PredictStats(g GraphView, opts Options) (Predictions, EngineStats, error) {
	cfg, err := opts.toCore()
	if err != nil {
		return nil, EngineStats{}, err
	}
	be, err := engine.New(opts.Engine, opts.Workers, opts.Seed)
	if err != nil {
		return nil, EngineStats{}, err
	}
	return be.Predict(g, cfg)
}

// ClusterOptions describes the deployment for distributed runs: the
// simulated cluster of the "sim" backend (Nodes/NodeType/Partitions/
// MemBudgetBytes) or the real worker fleet of the "dist" backend
// (WorkerAddrs/SpawnWorkers/Workers). Strategy and Seed apply to both.
type ClusterOptions struct {
	// Graph is the graph the cluster serves. Required for OpenCluster;
	// PredictDistributed fills it from its own argument. Any view works: a
	// dist cluster cuts the view it is opened with (a Manifest must describe
	// exactly that view) and serves it until Close — reopen to follow a live
	// graph's later mutations.
	Graph GraphView
	// Options is the base prediction configuration every query of an open
	// cluster runs under; Cluster.PredictFor overrides only the sources.
	Options Options
	// Manifest is the path of a fleet manifest written by `snaple pack
	// -shards`. When set (with Options.Engine "dist"), OpenCluster attaches
	// to resident snaple-worker processes — started with -shard, each
	// holding one packed partition — at WorkerAddrs (shard-major when
	// Replicas > 1) instead of shipping partitions: attaching is a
	// fingerprint handshake, and a worker resident for a different pack is
	// refused with ErrManifestMismatch.
	Manifest string
	// Nodes is the number of simulated cluster nodes (default 1; sim only).
	Nodes int
	// NodeType is "type-I" (8 cores, 32 GB, GbE) or "type-II" (20 cores,
	// 128 GB, 10GbE; the default) — the paper's two machine classes (sim
	// only).
	NodeType string
	// Partitions overrides the partition count (default one per core; sim
	// only — the dist backend always uses one partition per worker).
	Partitions int
	// Strategy selects the vertex-cut: "hash-edge" (default), "hash-source"
	// or "greedy".
	Strategy string
	// MemBudgetBytes optionally caps per-node memory (0 = the node spec's
	// capacity). Exceeding it aborts with an error wrapping
	// ErrMemoryExhausted (sim only).
	MemBudgetBytes int64
	// Seed drives partitioning and master election.
	Seed uint64
	// Workers bounds the host goroutines processing partitions
	// (0 = GOMAXPROCS). It never affects results or simulated costs. For
	// the dist backend it is the loopback worker count used when neither
	// WorkerAddrs nor SpawnWorkers is given.
	Workers int
	// WorkerAddrs connects the dist backend to running snaple-worker
	// processes ("host:port" each); without a Manifest one partition is
	// shipped to each, once, when the cluster opens.
	WorkerAddrs []string
	// SpawnWorkers makes the dist backend fork this many snaple-worker
	// processes on loopback for the life of the cluster (requires the
	// binary; see WorkerBin). Ignored when WorkerAddrs is set.
	SpawnWorkers int
	// WorkerBin locates the worker binary for SpawnWorkers (default
	// "snaple-worker" resolved through PATH).
	WorkerBin string
	// WireCompress enables per-frame flate compression on the dist wire
	// (trades coordinator/worker CPU for cross-node bytes).
	WireCompress bool
	// Replicas ships every partition to this many dist workers (0 or 1 = no
	// replication). With R > 1 the fleet divides into groups of R replicas
	// computing identically, so a worker death mid-run fails over to a
	// survivor and the run completes with bit-identical predictions; only
	// when all R replicas of a partition die does the run fail, with
	// ErrPartitionLost (dist only).
	Replicas int
	// StepTimeout bounds each dist superstep exchange phase (and the final
	// collect): a wedged or blackholed worker is declared dead at the
	// deadline instead of hanging the run. 0 = the 10-minute default;
	// negative disables the bound (dist only).
	StepTimeout time.Duration
	// DialAttempts bounds connect/spawn attempts per dist worker during
	// fleet setup; transient failures are retried with exponential backoff
	// and jitter (0 = 3 attempts).
	DialAttempts int
	// DialBackoff is the initial retry backoff for DialAttempts, doubled
	// after each failed attempt with jitter (0 = 150ms; dist only).
	DialBackoff time.Duration
}

// ErrMemoryExhausted is returned (wrapped) when a simulated node exceeds its
// memory budget.
var ErrMemoryExhausted = cluster.ErrMemoryExhausted

// ErrPartitionLost is returned (wrapped) by dist runs when every replica of
// some partition has died — the one fleet state failover cannot mask. With
// ClusterOptions.Replicas = 1 any single worker death reports it; with
// R > 1 it takes R deaths in the same replica group.
var ErrPartitionLost = engine.ErrPartitionLost

// Result reports a distributed run: the predictions plus the engine costs.
type Result struct {
	Predictions Predictions
	// Engine is the backend that produced the result: "sim", or "fleet" for
	// a dist deployment (a Cluster, and PredictDistributed, which opens one
	// for the run).
	Engine string
	// WallSeconds is host wall-clock time of the supersteps.
	WallSeconds float64
	// SimSeconds is the simulated cluster latency (compute makespan over
	// the configured cores plus network transfer time; sim only — the dist
	// backend's latency IS WallSeconds).
	SimSeconds float64
	// CrossBytes / CrossMsgs count cross-node traffic: simulated from the
	// paper's cost model on "sim", measured on real sockets on "dist".
	CrossBytes, CrossMsgs int64
	// ShipBytes is what crossed the wire before the first superstep of this
	// query (dist only): the attach handshake, plus the sparse closure roles
	// when scoped. Partition bytes are not in it — they cross once, when the
	// cluster opens.
	ShipBytes int64
	// MemPeakBytes is the highest per-node memory footprint (simulated on
	// "sim", the largest worker-reported live heap on "dist").
	MemPeakBytes int64
	// ReplicationFactor is the average replicas per vertex of the
	// vertex-cut.
	ReplicationFactor float64
	// FrontierVertices is the query closure's vertex count when the run was
	// scoped (Options.Sources non-empty); 0 on a full run.
	FrontierVertices int
	// ScoredVertices is how many vertices the final combine step visited:
	// the source count on a scoped run, NumVertices on a full run.
	ScoredVertices int
	// Replicas is the dist replica factor the run used (1 = no
	// replication; 0 on sim).
	Replicas int
	// WorkersDead counts dist workers declared dead during the run (conn
	// errors and missed phase deadlines), each masked by a failover.
	WorkersDead int
	// Failovers counts mid-run primary promotions: a partition whose
	// serving replica died and a survivor took over (dist only).
	Failovers int
	// DialRetries counts redialed connect/spawn attempts during dist fleet
	// setup (see ClusterOptions.DialAttempts).
	DialRetries int
}

// toSim maps the string-typed deployment description onto the engine
// layer's Sim backend.
func (c ClusterOptions) toSim() (engine.Sim, error) {
	var spec cluster.NodeSpec
	switch c.NodeType {
	case "", "type-II":
		spec = cluster.TypeII()
	case "type-I":
		spec = cluster.TypeI()
	default:
		return engine.Sim{}, fmt.Errorf("snaple: unknown node type %q (type-I|type-II)", c.NodeType)
	}
	strat, err := partition.ByName(c.Strategy, c.Seed)
	if err != nil {
		return engine.Sim{}, err
	}
	return engine.Sim{
		Nodes:          c.Nodes,
		Spec:           spec,
		Partitions:     c.Partitions,
		Strategy:       strat,
		MemBudgetBytes: c.MemBudgetBytes,
		Seed:           c.Seed,
		Workers:        c.Workers,
	}, nil
}

func toResult(preds Predictions, st engine.Stats) *Result {
	return &Result{
		Predictions:       preds,
		Engine:            st.Engine,
		WallSeconds:       st.WallSeconds,
		SimSeconds:        st.SimSeconds,
		CrossBytes:        st.CrossBytes,
		CrossMsgs:         st.CrossMsgs,
		ShipBytes:         st.ShipBytes,
		MemPeakBytes:      st.MemPeakBytes,
		ReplicationFactor: st.ReplicationFactor,
		FrontierVertices:  st.FrontierVertices,
		ScoredVertices:    st.ScoredVertices,
		Replicas:          st.Replicas,
		WorkersDead:       st.WorkersDead,
		Failovers:         st.Failovers,
		DialRetries:       st.DialRetries,
	}
}

// ErrManifestMismatch is returned (wrapped) when a fleet manifest does not
// describe the graph being served, or when a resident snaple-worker turns
// out to hold a partition packed from a different (graph, cut) than the
// coordinator's — the fingerprint handshake that replaces partition shipping
// caught the disagreement before any superstep ran.
var ErrManifestMismatch = engine.ErrManifestMismatch

// Cluster is a standing deployment opened once and queried many times: the
// persistent form of PredictDistributed. For the "dist" engine the expensive
// setup — vertex-cut partitioning, connecting the worker fleet and (for
// workers that hold no packed shard) shipping partitions — happens at
// OpenCluster, and every PredictFor afterwards only routes its query: it
// ships nothing but a fingerprint handshake and the sparse closure roles, and
// only contacts the replica groups whose partitions intersect the query's
// closure. Multiple servers (or snaple-serve front-ends) can share one
// standing fleet of resident workers.
//
// A Cluster is safe for concurrent use; queries are serialized over the
// standing connections. Close releases the connections (and any in-process
// or spawned workers); worker processes the cluster did not start keep
// running for the next coordinator.
type Cluster struct {
	g    GraphView
	opts Options

	fleet *engine.Fleet // "dist"
	sim   *engine.Sim   // per-call mode ("" / "sim")
	simW  int           // host worker bound for the sim backend

	mu     sync.Mutex
	last   EngineStats
	closed bool
}

// OpenCluster validates o eagerly — a bogus score, policy, node type,
// strategy or a manifest that does not match the graph all fail here, never
// on the first query — and brings the deployment up:
//
//   - Options.Engine "" or "sim": the simulated cluster; each query runs the
//     paper's cost model (nothing stays resident, so Open only validates).
//   - "dist" with Manifest: attach to resident workers at WorkerAddrs.
//   - "dist" with WorkerAddrs or SpawnWorkers (no manifest): plain workers,
//     each shipped its partition once, here.
//   - "dist" bare: an in-process fleet of Workers loopback workers (default
//     2), pinned once and reused by every query.
func OpenCluster(o ClusterOptions) (*Cluster, error) {
	if o.Graph == nil {
		return nil, fmt.Errorf("snaple: OpenCluster: nil graph")
	}
	if _, err := o.Options.toCore(); err != nil {
		return nil, err
	}
	c := &Cluster{g: o.Graph, opts: o.Options}
	switch eng := o.Options.Engine; eng {
	case "", "sim":
		sim, err := o.toSim()
		if err != nil {
			return nil, err
		}
		c.sim, c.simW = &sim, o.Workers
	case "dist":
		strat, err := partition.ByName(o.Strategy, o.Seed)
		if err != nil {
			return nil, err
		}
		fo := engine.FleetOptions{
			Addrs: o.WorkerAddrs, Spawn: o.SpawnWorkers, WorkerBin: o.WorkerBin,
			InProc: o.Workers, Replicas: o.Replicas, Strategy: strat, Seed: o.Seed,
			StepTimeout: o.StepTimeout, DialAttempts: o.DialAttempts,
			DialBackoff: o.DialBackoff, Compress: o.WireCompress,
		}
		if o.Manifest != "" {
			f, err := os.Open(o.Manifest)
			if err != nil {
				return nil, fmt.Errorf("snaple: OpenCluster: %w", err)
			}
			fo.Manifest, err = graph.ReadManifest(f)
			f.Close()
			if err != nil {
				return nil, err
			}
		}
		if c.fleet, err = engine.OpenFleet(o.Graph, fo); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("snaple: OpenCluster: engine %q has no cluster deployment (sim|dist)", eng)
	}
	return c, nil
}

// PredictFor answers "top-k for these vertices" against the standing
// deployment: a query-scoped run whose results are bit-identical to the full
// run's rows for the sources. On a dist cluster only the replica groups
// whose partitions intersect the sources' closure are contacted at all.
// Passing nil sources runs the full graph.
func (c *Cluster) PredictFor(sources []VertexID) (*Result, error) {
	return c.PredictForContext(context.Background(), sources)
}

// PredictForContext is PredictFor under a context: cancelling it closes the
// query's worker connections so a blocked superstep fails promptly — the
// workers stay up, and the cluster reconnects on the next query.
func (c *Cluster) PredictForContext(ctx context.Context, sources []VertexID) (*Result, error) {
	opts := c.opts
	opts.Sources = sources
	return c.predict(ctx, opts)
}

// Predict runs the cluster's base Options as-is (a full-graph pass unless
// Options.Sources scopes it).
func (c *Cluster) Predict() (*Result, error) {
	return c.predict(context.Background(), c.opts)
}

func (c *Cluster) predict(ctx context.Context, opts Options) (*Result, error) {
	cfg, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("snaple: cluster is closed")
	}
	if c.fleet != nil {
		preds, st, err := c.fleet.PredictCtx(ctx, c.g, cfg)
		if err != nil {
			return nil, err
		}
		return toResult(preds, st), nil
	}
	res, err := c.sim.PredictResult(c.g, cfg)
	if res == nil {
		return nil, err // failed before any superstep ran: nothing to report
	}
	st := engine.StatsFromResult(res, c.simW)
	c.mu.Lock()
	c.last = st
	c.mu.Unlock()
	return toResult(res.Pred, st), err
}

// Stats reports the deployment's cost counters: cumulative over the
// cluster's lifetime for a dist fleet (worker deaths, failovers, dial
// retries survive across queries), the last query's report for sim.
func (c *Cluster) Stats() EngineStats {
	if c.fleet != nil {
		return c.fleet.Stats()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// Close releases the cluster's standing connections and the workers it
// started (in-process or spawned). Worker processes it merely connected to
// keep running for the next coordinator. Close is idempotent.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	if c.fleet != nil {
		return c.fleet.Close()
	}
	return nil
}

// PredictDistributed runs SNAPLE's Algorithm 2 on a configured deployment:
// by default the GAS engine over a simulated cluster (the engine layer's
// "sim" backend, with the paper's cost model), or — when opts.Engine is
// "dist" — across real worker processes over TCP, with the traffic fields
// measured on the wire. Results are bit-identical to Predict for the same
// Options, independent of the deployment.
//
// It is the one-shot convenience path: OpenCluster, one prediction, Close.
// Callers issuing more than one query should hold the *Cluster open instead,
// so the fleet setup (partitioning, connecting, any shipping) is paid once.
func PredictDistributed(g GraphView, opts Options, cl ClusterOptions) (*Result, error) {
	cl.Graph, cl.Options = g, opts
	c, err := OpenCluster(cl)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Predict()
}

// PredictBaseline runs the paper's BASELINE (a direct 2-hop Jaccard
// implementation of Algorithm 1 on the GAS engine). On large graphs with
// bounded budgets it fails with ErrMemoryExhausted — by design.
func PredictBaseline(g GraphView, k int, cl ClusterOptions) (*Result, error) {
	sim, err := cl.toSim()
	if err != nil {
		return nil, err
	}
	assign, clu, err := sim.Deploy(g)
	if err != nil {
		return nil, err
	}
	res, err := core.PredictBaselineGASWorkers(g, assign, clu, k, cl.Workers)
	if res == nil {
		return nil, err
	}
	return toResult(res.Pred, engine.StatsFromResult(res, cl.Workers)), err
}

// PredictWalks runs the Cassovary-style single-machine comparator: w random
// walks of depth d per vertex, recommending the k most-visited strangers.
func PredictWalks(g GraphView, walks, depth, k int, seed uint64) (Predictions, error) {
	return walk.Predict(g, walk.Config{Walks: walks, Depth: depth, K: k, Seed: seed})
}

// Dataset generates one of the paper's dataset analogs: gowalla, pokec,
// livejournal, orkut or twitter-rv, at the given scale (1.0 = harness
// default size).
func Dataset(name string, scale float64, seed uint64) (*Graph, error) {
	ds, err := eval.DatasetByName(name)
	if err != nil {
		return nil, err
	}
	return ds.Generate(scale, seed)
}

// DatasetNames lists the available analogs in Table 4 order.
func DatasetNames() []string { return eval.DatasetNames() }

// CommunityGraph generates a graph from the homophily model directly.
type CommunityGraph = gen.CommunityConfig

// GenerateCommunity builds a synthetic community graph.
func GenerateCommunity(cfg CommunityGraph, seed uint64) (*Graph, error) {
	return gen.Community(cfg, seed)
}

// NewSplit hides perVertex outgoing edges of every vertex with degree > 3
// (the paper's protocol) and returns the training graph plus the hidden
// edges.
func NewSplit(g *Graph, perVertex int, seed uint64) (*Split, error) {
	return eval.MakeSplit(g, perVertex, seed)
}

// Recall is the fraction of hidden edges recovered by pred.
func Recall(pred Predictions, s *Split) float64 { return eval.Recall(pred, s) }

// FromEdges builds a graph from an explicit edge list (duplicates and
// self-loops removed). Vertex IDs must lie in [0, numVertices).
func FromEdges(numVertices int, edges []Edge) (*Graph, error) {
	return graph.FromEdges(numVertices, edges)
}

// ReadEdgeList parses a SNAP-style edge list ("src dst" per line, '#'
// comments). Set symmetrize for undirected inputs. Regular files are
// parsed with the streaming parallel ingester, whose peak memory is the
// CSR being built plus per-shard counters — no edge-list intermediate.
func ReadEdgeList(r io.Reader, symmetrize bool) (*Graph, error) {
	return graph.ReadEdgeList(r, graph.ReadOptions{Symmetrize: symmetrize})
}

// ReadEdgeListFile is ReadEdgeList over a file path.
func ReadEdgeListFile(path string, symmetrize bool) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snaple: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadEdgeList(f, symmetrize)
}

// WriteEdgeList writes g as a SNAP-style edge list, including the
// machine-readable "# vertices: N" header that makes save/load round trips
// preserve isolated vertices.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// GraphReadOptions configures the graph loaders (see the fields' docs in
// internal/graph).
type GraphReadOptions = graph.ReadOptions

// ReadGraphFile loads a graph from path in either supported on-disk
// format, auto-detected by magic bytes: a binary CSR snapshot (.sgr, see
// WriteSnapshot) or a SNAP-style text edge list.
func ReadGraphFile(path string, opts GraphReadOptions) (*Graph, error) {
	return graph.ReadGraphFile(path, opts)
}

// LoadGraphFile is ReadGraphFile with the CLI's defaults: just the
// undirected-input switch, which only applies to text inputs (snapshots
// bake the edge direction in when packed).
func LoadGraphFile(path string, symmetrize bool) (*Graph, error) {
	return graph.ReadGraphFile(path, graph.ReadOptions{Symmetrize: symmetrize})
}

// NewLive starts a live, mutable graph over a frozen base. Live.Apply
// publishes epoch-stamped Delta views copy-on-write (readers keep whatever
// view they hold, consistently), Live.Compact folds the overlay back into
// a fresh CSR, and every Predict entry point accepts the views directly. A
// dist Cluster serves the view it was opened with: reopen it to follow later
// mutations (and compact first when attaching to a packed manifest).
func NewLive(base *Graph) *Live { return graph.NewLive(base) }

// LoadInfo describes how OpenGraphFile loaded a graph: the detected
// format, the snapshot version, and whether the mmap and packed-adjacency
// paths were taken.
type LoadInfo = graph.LoadInfo

// Packed is a read-only graph view whose adjacency stays delta-varint
// compressed in memory, decoding rows on demand — how packed .sgr
// snapshots serve queries without materialising the CSR.
type Packed = graph.Packed

// OpenGraphFile loads a graph from path preserving its storage
// representation: format-v2 snapshots arrive with their columns aliasing a
// read-only mmap of the file (zero per-edge work, O(1) heap allocation),
// packed-adjacency snapshots stay compressed as a *Packed view, and text
// edge lists parse as usual. See GraphReadOptions.NoMap and Verify for the
// heap and full-validation switches.
func OpenGraphFile(path string, opts GraphReadOptions) (GraphView, LoadInfo, error) {
	return graph.OpenGraphFile(path, opts)
}

// MapSnapshot opens a format-v2 plain .sgr snapshot with its CSR columns
// mmap'd in place; see OpenGraphFile for the general loader.
func MapSnapshot(path string) (*Graph, error) { return graph.MapSnapshot(path) }

// SnapshotOptions configures WriteSnapshotOpts (the packed-adjacency
// switch).
type SnapshotOptions = graph.SnapshotOptions

// WriteSnapshot writes g as a versioned, checksummed binary CSR snapshot.
// Loading one materialises the graph with zero per-edge allocation — no
// parsing, no remap, no re-sort — and format v2 goes further: its sections
// are 8-aligned so loaders view the file in place, mmap'd, with load cost
// independent of edge count. `snaple pack` converts big edge lists once
// and every later run starts at page-cache speed.
func WriteSnapshot(w io.Writer, g *Graph) error { return graph.WriteSnapshot(w, g) }

// WriteSnapshotOpts is WriteSnapshot with explicit encoding options, e.g.
// delta-varint packed adjacency.
func WriteSnapshotOpts(w io.Writer, g *Graph, o SnapshotOptions) error {
	return graph.WriteSnapshotOpts(w, g, o)
}

// ReadSnapshot loads a binary CSR snapshot written by WriteSnapshot (any
// format version), verifying its checksums and structural invariants.
func ReadSnapshot(r io.Reader) (*Graph, error) { return graph.ReadSnapshot(r) }

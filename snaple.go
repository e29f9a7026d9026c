// Package snaple is a Go implementation of SNAPLE (Kermarrec, Taïani,
// Tirado: "Scaling Out Link Prediction with SNAPLE: 1 Billion Edges and
// Beyond", MIDDLEWARE 2015 / Inria RR-454): a link-prediction framework for
// gather-apply-scatter (GAS) graph engines that scores candidate edges by
// combining and aggregating raw similarities along 2-hop paths instead of
// shipping neighbourhoods across the cluster.
//
// The package is a facade over the repository's internals:
//
//   - one configuration, Options (internal/deploy): Algorithm 2's inputs
//     plus the deployment that runs them, resolved in one place into the
//     kernels' config and the backend — every entry point takes it, and the
//     snaple commands bind their shared flags into it,
//   - the SNAPLE scoring framework: Algorithm 2 written once as a kernel set
//     that every backend schedules, plus the naive BASELINE comparison
//     system (internal/core),
//   - a pluggable execution layer (internal/engine) with four backends
//     behind one interface: "local", a parallel shared-memory engine that
//     shards vertex ranges over goroutines; "serial", the single-threaded
//     reference loop; "sim", the paper's GAS supersteps over a simulated
//     cluster with vertex-cut placement, master/mirror replication and cost
//     accounting (internal/partition, internal/cluster); and "dist", the
//     same supersteps across real worker processes over TCP
//     (internal/wire, cmd/snaple-worker) with traffic measured on the wire
//     — one coordinator, engine.Fleet, held open by a Cluster or opened for
//     a single run by PredictStats,
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
// Options; they differ only in speed and in which costs they report. Every
// entry point that reports costs returns (Predictions, EngineStats, error).
//
// Quick start — predict, then run the same Options on a simulated
// two-node cluster:
//
//	g, _ := snaple.Dataset("livejournal", 0.2, 42)
//	split, _ := snaple.NewSplit(g, 1, 42)
//	opts := snaple.Options{Score: "linearSum", KLocal: 20}
//	preds, _ := snaple.Predict(split.Train, opts)
//	fmt.Printf("recall@5 = %.3f\n", snaple.Recall(preds, split))
//	opts.Engine, opts.Nodes = "sim", 2
//	_, st, _ := snaple.PredictStats(split.Train, opts)
//	fmt.Printf("cross-node traffic: %d B\n", st.CrossBytes)
package snaple

import (
	"context"
	"fmt"
	"io"
	"sync"

	"snaple/internal/cluster"
	"snaple/internal/core"
	"snaple/internal/deploy"
	"snaple/internal/engine"
	"snaple/internal/eval"
	"snaple/internal/gen"
	"snaple/internal/graph"
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

// Options configures a SNAPLE run: Algorithm 2's inputs (Score, Alpha, K,
// KLocal, ThrGamma, Policy, Paths, Seed), the backend (Engine, Workers), an
// optional query frontier (Sources) and, for the "sim" and "dist" engines,
// the deployment: the simulated cluster (Nodes, NodeType, MemBudgetBytes)
// or the worker fleet (Manifest, WorkerAddrs, SpawnWorkers, WorkerBin,
// WireCompress, Replicas, StepTimeout, DialAttempts), cut by Strategy. Every entry point takes the same Options,
// and "" means "local" at every one of them. The fields are documented in
// internal/deploy; BindFlags binds the flags the snaple commands share.
type Options = deploy.Options

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
	return PredictForContext(context.Background(), g, sources, opts)
}

// PredictForContext is PredictFor under a context deadline or cancellation.
// On the dist backend a cancelled context closes every worker connection, so
// a blocked superstep exchange fails promptly with ctx.Err() and the
// resident workers stay reusable; the in-memory backends finish their steps
// in microseconds and simply ignore ctx.
func PredictForContext(ctx context.Context, g GraphView, sources []VertexID, opts Options) (Predictions, error) {
	opts.Sources = sources
	preds, _, err := predict(ctx, g, opts)
	return preds, err
}

// EngineStats reports what a prediction run cost: wall-clock time, ingest
// throughput (EdgesPerSec), heap churn (AllocBytes/AllocObjects, local and
// serial backends), the simulated-cluster costs (sim) and the measured wire
// traffic and fleet health (dist).
type EngineStats = engine.Stats

// PredictStats is Predict with the backend's cost report. It runs every
// deployment: opts.Engine "sim" with the simulated cluster its deployment
// fields describe, "dist" on a worker fleet opened for this one run (hold a
// Cluster open to pay for the cut and the shipping once). On a simulated
// run that exhausts its memory budget the report carries the partial costs
// alongside an error wrapping ErrMemoryExhausted.
func PredictStats(g GraphView, opts Options) (Predictions, EngineStats, error) {
	return predict(context.Background(), g, opts)
}

func predict(ctx context.Context, g GraphView, opts Options) (Predictions, EngineStats, error) {
	cfg, err := opts.Config()
	if err != nil {
		return nil, EngineStats{}, err
	}
	be, err := opts.Backend(g, false)
	if err != nil {
		return nil, EngineStats{}, err
	}
	return run(ctx, be, g, cfg)
}

// run answers cfg through the engine's one query path and scatters the rows
// once, into the table the facade returns.
func run(ctx context.Context, be engine.Backend, g GraphView, cfg core.Config) (Predictions, EngineStats, error) {
	sp, st, err := engine.PredictScoped(ctx, be, g, cfg)
	if err != nil {
		return nil, st, err
	}
	return sp.Dense(g.NumVertices()), st, nil
}

// ErrMemoryExhausted is returned (wrapped) when a simulated node exceeds its
// memory budget.
var ErrMemoryExhausted = cluster.ErrMemoryExhausted

// ErrPartitionLost is returned (wrapped) by dist runs when every replica of
// some partition has died — the one fleet state failover cannot mask. With
// Options.Replicas = 1 any single worker death reports it; with R > 1 it
// takes R deaths in the same replica group.
var ErrPartitionLost = engine.ErrPartitionLost

// ErrManifestMismatch is returned (wrapped) when a fleet manifest does not
// describe the graph being served, or when a resident snaple-worker turns
// out to hold a partition packed from a different (graph, cut) than the
// coordinator's — the fingerprint handshake that replaces partition shipping
// caught the disagreement before any superstep ran.
var ErrManifestMismatch = engine.ErrManifestMismatch

// Cluster is a standing deployment opened once and queried many times. For
// the "dist" engine the expensive setup — vertex-cut partitioning,
// connecting the worker fleet and (for workers that hold no packed shard)
// shipping partitions — happens at OpenCluster, and every PredictFor
// afterwards only routes its query: it ships nothing but a fingerprint
// handshake and the sparse closure roles, and only contacts the replica
// groups whose partitions intersect the query's closure. Multiple servers
// (or snaple-serve front-ends) can share one standing fleet of resident
// workers.
//
// A Cluster is safe for concurrent use; queries are serialized over the
// standing connections. Close releases the connections (and any in-process
// or spawned workers); worker processes the cluster did not start keep
// running for the next coordinator.
type Cluster struct {
	g     GraphView
	opts  Options
	be    engine.Backend
	fleet *engine.Fleet // be, on "dist"

	mu     sync.Mutex
	last   EngineStats // the last sim query's report
	closed bool
}

// OpenCluster validates o eagerly — a bogus score, policy, node type,
// strategy or a manifest that does not match the graph all fail here, never
// on the first query — and brings up the deployment that serves g until
// Close (reopen to follow a live graph's later mutations):
//
//   - Engine "sim": the simulated cluster; each query runs the paper's cost
//     model (nothing stays resident, so Open only validates).
//   - "dist" with Manifest: attach to resident workers at WorkerAddrs.
//   - "dist" with WorkerAddrs or SpawnWorkers (no manifest): plain workers,
//     each shipped its partition once, here.
//   - "dist" bare: an in-process fleet of Workers loopback workers (default
//     2), pinned once and reused by every query.
//
// Every other engine, "" included, has no cluster deployment.
func OpenCluster(g GraphView, o Options) (*Cluster, error) {
	if g == nil {
		return nil, fmt.Errorf("snaple: OpenCluster: nil graph")
	}
	if o.Engine != "sim" && o.Engine != "dist" {
		return nil, fmt.Errorf("snaple: OpenCluster: engine %q has no cluster deployment (sim|dist)", o.Engine)
	}
	if _, err := o.Config(); err != nil {
		return nil, err
	}
	be, err := o.Backend(g, true)
	if err != nil {
		return nil, err
	}
	c := &Cluster{g: g, opts: o, be: be}
	c.fleet, _ = be.(*engine.Fleet)
	return c, nil
}

// PredictFor answers "top-k for these vertices" against the standing
// deployment: a query-scoped run whose results are bit-identical to the full
// run's rows for the sources. On a dist cluster only the replica groups
// whose partitions intersect the sources' closure are contacted at all.
// Passing nil sources runs the full graph.
func (c *Cluster) PredictFor(sources []VertexID) (Predictions, EngineStats, error) {
	return c.PredictForContext(context.Background(), sources)
}

// PredictForContext is PredictFor under a context: cancelling it closes the
// query's worker connections so a blocked superstep fails promptly — the
// workers stay up, and the cluster reconnects on the next query.
func (c *Cluster) PredictForContext(ctx context.Context, sources []VertexID) (Predictions, EngineStats, error) {
	opts := c.opts
	opts.Sources = sources
	return c.predict(ctx, opts)
}

// Predict runs the cluster's Options as-is (a full-graph pass unless
// Options.Sources scopes it).
func (c *Cluster) Predict() (Predictions, EngineStats, error) {
	return c.predict(context.Background(), c.opts)
}

func (c *Cluster) predict(ctx context.Context, opts Options) (Predictions, EngineStats, error) {
	cfg, err := opts.Config()
	if err != nil {
		return nil, EngineStats{}, err
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, EngineStats{}, fmt.Errorf("snaple: cluster is closed")
	}
	preds, st, err := run(ctx, c.be, c.g, cfg)
	if c.fleet == nil && st.Engine != "" { // a sim run that got as far as a superstep
		c.mu.Lock()
		c.last = st
		c.mu.Unlock()
	}
	return preds, st, err
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

// PredictBaseline runs the paper's BASELINE (a direct 2-hop Jaccard
// implementation of Algorithm 1 as GAS supersteps) for the top opts.K
// (default 5) on the simulated cluster opts describes, whatever its Engine.
// On large graphs with bounded budgets it fails with ErrMemoryExhausted — by
// design — and the report carries the costs up to the failing step.
func PredictBaseline(g GraphView, opts Options) (Predictions, EngineStats, error) {
	cfg, err := opts.Config()
	if err != nil {
		return nil, EngineStats{}, err
	}
	opts.Engine = "sim"
	be, err := opts.Backend(g, false)
	if err != nil {
		return nil, EngineStats{}, err
	}
	return be.(engine.Sim).PredictBaseline(g, cfg.K)
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

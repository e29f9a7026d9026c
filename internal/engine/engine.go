// Package engine is the execution layer of the repository: it decouples
// SNAPLE's scoring algorithm (internal/core) from the substrate that runs
// it, the way SNAP pairs one algorithm API with a tuned single-machine core
// and GiGL layers one API over interchangeable local/distributed backends.
//
// Five Backend implementations exist, four of them named (engine.Names):
//
//   - Serial — the single-threaded reference loop (core.ReferenceSnaple),
//     the test oracle every other backend must match bit for bit;
//   - Local — a parallel shared-memory backend that runs Algorithm 2's
//     three steps directly over the CSR with goroutine sharding over vertex
//     ranges and per-worker scratch buffers (no replication, no cost
//     accounting): the fastest way to predict on one machine;
//   - Sim — the paper's system: Algorithm 2's GAS supersteps over a
//     simulated cluster with vertex-cut partitioning, master/mirror
//     replication and full cost accounting (internal/partition,
//     internal/cluster), driving the fleet's scheduler, core.DistPartition,
//     in process;
//   - Fleet — the same supersteps across real worker processes over TCP
//     (internal/wire, cmd/snaple-worker), with cross-worker traffic
//     measured on the wire instead of simulated: the one distributed
//     coordinator, which cuts the graph and places the shards once at
//     OpenFleet and then answers any number of queries;
//   - Dist — "dist", the one-shot form of Fleet: the same options, a fleet
//     opened for a single Predict and closed after it.
//
// All backends produce bit-identical Predictions for the same (graph,
// Config): truncation and the Γrnd relay selection are hash-keyed draws and
// aggregation folds path values in sorted order, so results never depend on
// scheduling, partitioning, placement or worker count.
package engine

import (
	"context"
	"slices"

	"snaple/internal/core"
	"snaple/internal/graph"
)

// Stats reports what a prediction run cost. Wall-clock fields are always
// set; the cluster fields are zero for the Serial and Local backends, which
// model no deployment. For the sim backend the cluster fields are simulated
// from the paper's cost model; for the dist backend CrossBytes/CrossMsgs
// and MemPeakBytes are measured — real bytes through real sockets.
type Stats struct {
	// Engine is the backend's name: "serial", "local", "sim", "dist", or
	// "fleet" for a run on a standing Fleet.
	Engine string
	// Workers is the backend's resolved concurrency bound (the configured
	// value, or GOMAXPROCS when it was 0). Small inputs may use fewer
	// goroutines than the bound. For dist it is the worker-process count.
	Workers int
	// WallSeconds is host wall-clock time of the prediction steps.
	WallSeconds float64
	// EdgesPerSec is the ingest-style throughput NumEdges / WallSeconds, the
	// paper's headline scale metric normalised to this run's graph.
	EdgesPerSec float64
	// AllocBytes / AllocObjects are heap bytes and objects allocated during
	// the run (core.ReadHeapCounters deltas; approximate under concurrent
	// load, and small-object counts may lag a short run by up to a span).
	// Set by the serial and local backends, which are engineered to keep the
	// per-vertex steady state allocation-free; for dist and fleet they sum the
	// worker-reported deltas (or take their maximum when the workers share
	// this process, where each delta already covers everyone). They cover
	// the run PredictScoped makes, not the |V|-long table a Predict of
	// Local, Dist or Fleet then scatters its rows into.
	AllocBytes, AllocObjects int64
	// SimSeconds is the simulated cluster latency (sim backend only).
	SimSeconds float64
	// CrossBytes / CrossMsgs count cross-node traffic: simulated from the
	// paper's cost model for sim, measured on the wire for dist (all
	// coordinator↔worker traffic after the attach handshake).
	CrossBytes, CrossMsgs int64
	// ShipBytes is the wire traffic of the query's setup phase, which
	// precedes the supersteps: the attach handshake (fingerprint plus, on
	// scoped queries, the sparse closure roles) — never partition columns,
	// which cross once when the fleet opens (and again only to a worker it
	// had to reconnect). 0 for backends with no wire.
	ShipBytes int64
	// MemPeakBytes is the highest per-node memory footprint: simulated for
	// sim, the largest worker-reported live heap for dist.
	MemPeakBytes int64
	// ReplicationFactor is the vertex-cut's average replicas per vertex
	// (sim and dist backends).
	ReplicationFactor float64
	// FrontierVertices is the query closure's vertex count when the run was
	// scoped to a source frontier (core.Config.Sources non-empty): how many
	// vertices any step had to touch. 0 on a full run.
	FrontierVertices int
	// ScoredVertices is how many vertices the final combine step visited —
	// the deduplicated source count on a scoped run, NumVertices on a full
	// run. Together with FrontierVertices it is the work-done measure that
	// lets callers assert a scoped query did less than a full pass without
	// relying on wall-clock noise.
	ScoredVertices int
	// Replicas is the dist backend's replica factor: how many workers hold
	// each partition (1 = no replication). 0 for other backends.
	Replicas int
	// WorkersDead counts the workers the dist coordinator declared dead
	// during the run — a connection error or a missed phase deadline, each
	// followed by a failover to a surviving replica (or, when a partition
	// has none left, by ErrPartitionLost).
	WorkersDead int
	// Failovers counts mid-run primary promotions: a partition whose
	// serving replica died and a survivor took over.
	Failovers int
	// DialRetries counts redialed connect/spawn attempts (bounded retry with
	// backoff; see FleetOptions.DialAttempts).
	DialRetries int
}

// Backend executes SNAPLE's Algorithm 2 on some substrate. Implementations
// must be bit-identical to core.ReferenceSnaple for every valid Config —
// including query-scoped configs (Config.Sources non-empty), whose
// predictions must equal the full run's filtered to the sources.
type Backend interface {
	// Name identifies the backend: one of engine.Names(), which is the
	// single source of truth for the backend set.
	Name() string
	// Predict runs Algorithm 2 over g and returns per-vertex predictions
	// with the run's cost. When cfg.Sources is non-empty the run is scoped
	// to that frontier: only the sources receive predictions, and the
	// backend restricts its work to the frontier closure. On error the
	// predictions may be partial or nil.
	Predict(g graph.View, cfg core.Config) (core.Predictions, Stats, error)
}

// ScopedBackend is a Backend with the one query method: Algorithm 2 for
// any cfg, scoped or full, under a context, with the result held as rows
// rather than scattered over a |V|-long table. Local, Fleet and Dist
// implement it, and their Predict is this method plus that scatter; Sim and
// Serial build the table anyway and reach it through PredictScoped's
// fallback.
type ScopedBackend interface {
	Backend
	// PredictScoped runs Algorithm 2 over g for cfg. A scoped cfg (Sources
	// non-empty) returns the sources' rows sparse, and nothing the run
	// allocates is sized by the graph; an unscoped one returns nil Vertices
	// and one row per vertex. Backends with a remote side abandon the run
	// when ctx is cancelled: every worker connection is closed, so a blocked
	// superstep exchange fails promptly with ctx.Err() and the workers stay
	// reusable. The in-memory backend ignores ctx.
	PredictScoped(ctx context.Context, g graph.View, cfg core.Config) (core.ScopedPredictions, Stats, error)
}

// PredictScoped is the engine's one query path: it runs be's PredictScoped
// when be has one, and otherwise (Sim, Serial, wrappers that hide the
// method) a plain Predict, whose dense table it returns as is on a full run
// and picks the sources' rows out of on a scoped one. Rows alias the run's
// buffers either way. The in-memory backends finish their steps in
// microseconds and have no remote side to abandon, so the fallback ignores
// ctx.
func PredictScoped(ctx context.Context, be Backend, g graph.View, cfg core.Config) (core.ScopedPredictions, Stats, error) {
	if sb, ok := be.(ScopedBackend); ok {
		return sb.PredictScoped(ctx, g, cfg)
	}
	preds, st, err := be.Predict(g, cfg)
	if err != nil || len(cfg.Sources) == 0 {
		return core.ScopedPredictions{Rows: preds}, st, err
	}
	sp := core.ScopedPredictions{Vertices: slices.Clone(cfg.Sources)}
	slices.Sort(sp.Vertices)
	sp.Vertices = slices.Compact(sp.Vertices)
	sp.Rows = make([][]core.Prediction, len(sp.Vertices))
	for i, v := range sp.Vertices {
		sp.Rows[i] = preds[v]
	}
	return sp, st, nil
}

// dense is the Predict of a ScopedBackend: its one query method run to
// completion, scattered into the |V|-long table Backend.Predict promises.
func dense(sb ScopedBackend, g graph.View, cfg core.Config) (core.Predictions, Stats, error) {
	sp, st, err := sb.PredictScoped(context.Background(), g, cfg)
	if err != nil {
		return nil, st, err
	}
	return sp.Dense(g.NumVertices()), st, nil
}

// Names lists the built-in backend names. It is the single source of truth
// for the backend set: every help text and error message that enumerates
// backends (deploy.Options, cmd/snaple, cmd/snaple-bench) must derive from
// it, so a new backend can never be silently missing from one of the lists.
func Names() []string { return []string{"local", "serial", "sim", "dist"} }

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
	"errors"
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
	// this process, where each delta already covers everyone).
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

// ContextBackend is a Backend whose runs can be abandoned mid-flight. Fleet
// and Dist implement it: cancelling the context closes every worker
// connection, so a blocked superstep exchange fails promptly and the
// workers are left reusable for the next job.
type ContextBackend interface {
	Backend
	// PredictCtx is Predict under a context. When ctx is cancelled the run
	// returns ctx.Err() as soon as the in-flight exchange unblocks.
	PredictCtx(ctx context.Context, g graph.View, cfg core.Config) (core.Predictions, Stats, error)
}

// PredictWithContext runs be.PredictCtx when the backend supports
// cancellation and falls back to a plain Predict otherwise — the in-memory
// backends have no remote side to abandon, so a context could only be
// checked between steps they finish in microseconds anyway.
func PredictWithContext(ctx context.Context, be Backend, g graph.View, cfg core.Config) (core.Predictions, Stats, error) {
	if cb, ok := be.(ContextBackend); ok {
		return cb.PredictCtx(ctx, g, cfg)
	}
	return be.Predict(g, cfg)
}

// ScopedBackend is a Backend that can hand a query-scoped run's result back
// sparse — sorted (source, row) pairs — instead of scattered over a |V|-long
// table. Local, Fleet and Dist implement it, and none of their scoped runs
// builds that table; Sim and Serial stay dense on purpose.
type ScopedBackend interface {
	Backend
	// PredictScoped is Predict for a cfg with non-empty Sources, with the
	// result left sparse. It fails on an unscoped cfg. Backends with a remote
	// side abandon the run when ctx is cancelled, as PredictCtx does; the
	// in-memory one ignores ctx.
	PredictScoped(ctx context.Context, g graph.View, cfg core.Config) (core.ScopedPredictions, Stats, error)
}

// errUnscoped rejects a scoped entry point called without sources.
var errUnscoped = errors.New("engine: PredictScoped needs Config.Sources")

// PredictScoped runs a query-scoped prediction (cfg.Sources non-empty) on
// any backend and returns the sources' rows sparse: directly from a
// ScopedBackend, otherwise (Sim, Serial, wrappers that hide the method) by
// picking them out of the dense table a plain Predict (PredictCtx when the
// backend is cancellable) returns. Rows alias the run's buffers either way.
// It is the entry point of callers that only want the sources' rows, serve's
// batch run above all.
func PredictScoped(ctx context.Context, be Backend, g graph.View, cfg core.Config) (core.ScopedPredictions, Stats, error) {
	if len(cfg.Sources) == 0 {
		return core.ScopedPredictions{}, Stats{Engine: be.Name()}, errUnscoped
	}
	if sb, ok := be.(ScopedBackend); ok {
		return sb.PredictScoped(ctx, g, cfg)
	}
	preds, st, err := PredictWithContext(ctx, be, g, cfg)
	if err != nil {
		return core.ScopedPredictions{}, st, err
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

// Names lists the built-in backend names. It is the single source of truth
// for the backend set: every help text and error message that enumerates
// backends (deploy.Options, cmd/snaple, cmd/snaple-bench) must derive from
// it, so a new backend can never be silently missing from one of the lists.
func Names() []string { return []string{"local", "serial", "sim", "dist"} }

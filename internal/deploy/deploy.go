// Package deploy holds SNAPLE's one configuration type. Options carries
// Algorithm 2's inputs and the deployment that runs them, and is resolved
// in exactly one place into each thing the layers below read: Config into
// the core.Config the kernels take, Backend into the engine.Backend that
// schedules them, BindFlags into the command line. The public facade
// aliases it as snaple.Options; cmd/snaple and cmd/snaple-serve bind their
// shared flags through it.
package deploy

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"snaple/internal/cluster"
	"snaple/internal/core"
	"snaple/internal/engine"
	"snaple/internal/graph"
	"snaple/internal/partition"
)

// Options configures one SNAPLE run: Algorithm 2's inputs, the backend, and
// — for "sim" and "dist" — the deployment. The zero value of every field is
// a usable default, and one Options means the same predictions on every
// backend and deployment.
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
	// Paths is the path length scored: 2, the paper's setting (0 means the
	// same). SNAPLE scores 2-hop paths only; any other value is refused.
	Paths int
	// Seed drives truncation and the rnd policy, and on "sim" and "dist"
	// the vertex cut and master election.
	Seed uint64
	// Engine selects the backend: "local" (or "", the default: parallel
	// shared-memory), "serial" (the single-threaded reference), "sim" (the
	// GAS supersteps over the simulated cluster the deployment fields describe)
	// or "dist" (real worker processes over TCP). All backends return
	// bit-identical predictions.
	Engine string
	// Workers bounds the goroutines of the chosen backend (0 = GOMAXPROCS);
	// it never affects results or simulated costs. For "dist" without
	// WorkerAddrs or SpawnWorkers it is the in-process worker count
	// (0 = 2).
	Workers int
	// Sources optionally scopes the run to a query frontier: when
	// non-empty, only these vertices receive predictions and every backend
	// restricts its work to the exact closure their predictions depend on
	// (2 hops out). The results are bit-identical to the full run's,
	// filtered to the sources.
	Sources []graph.VertexID

	// Manifest is the path of a fleet manifest written by `snaple pack
	// -shards` (dist only): the workers at WorkerAddrs (shard-major when
	// Replicas > 1) are resident snaple-worker processes started with
	// -shard, attached by fingerprint handshake instead of shipped their
	// partitions. A worker resident for a different pack is refused with
	// engine.ErrManifestMismatch.
	Manifest string
	// Nodes is the number of simulated cluster nodes (default 1; sim only).
	Nodes int
	// NodeType is "type-I" (8 cores, 32 GB, GbE) or "type-II" (20 cores,
	// 128 GB, 10GbE; the default) — the paper's two machine classes (sim
	// only).
	NodeType string
	// Strategy selects the vertex cut: "hash-edge" (default), "hash-source"
	// or "greedy".
	Strategy string
	// MemBudgetBytes optionally caps per-node memory (0 = the node spec's
	// capacity). Exceeding it aborts with an error wrapping
	// cluster.ErrMemoryExhausted (sim only).
	MemBudgetBytes int64
	// WorkerAddrs connects "dist" to running snaple-worker processes
	// ("host:port" each); without a Manifest each is shipped its partition
	// once, when the fleet opens.
	WorkerAddrs []string
	// SpawnWorkers makes "dist" fork this many snaple-worker processes on
	// loopback for the life of the fleet (see WorkerBin). Ignored when
	// WorkerAddrs is set.
	SpawnWorkers int
	// WorkerBin locates the worker binary for SpawnWorkers (default
	// "snaple-worker" resolved through PATH).
	WorkerBin string
	// WireCompress enables per-frame flate compression on the dist wire
	// (trades coordinator and worker CPU for cross-node bytes).
	WireCompress bool
	// Replicas ships every partition to this many dist workers (0 or 1 = no
	// replication). With R > 1 a worker death mid-run fails over to a
	// survivor and the run completes with bit-identical predictions; only
	// when all R replicas of a partition die does it fail, with
	// engine.ErrPartitionLost.
	Replicas int
	// StepTimeout bounds each dist superstep exchange phase (and the final
	// collect): a wedged or blackholed worker is declared dead at the
	// deadline instead of hanging the run. 0 = the 10-minute default;
	// negative disables the bound.
	StepTimeout time.Duration
	// DialAttempts bounds connect/spawn attempts per dist worker during
	// fleet setup; transient failures are retried with exponential backoff
	// and jitter (0 = 3 attempts).
	DialAttempts int
}

// Config is the one translation of o into the kernels' configuration: the
// score and policy names resolved, every default filled, and the result
// validated.
func (o Options) Config() (core.Config, error) {
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
	pol, err := core.PolicyByName(o.Policy)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Score: spec, K: o.K, KLocal: o.KLocal, ThrGamma: o.ThrGamma,
		Policy: pol, Paths: o.Paths, Seed: o.Seed, Sources: o.Sources,
	}.Normalized()
}

// Backend is the one translation of o into what runs it: Local or Serial;
// Sim with the deployment fields; and for "dist" either the one-shot
// engine.Dist, which cuts whatever view each run hands it, or — when
// standing — an engine.Fleet cut from g now, which serves g until the caller
// closes it. A Manifest is read here, and only "dist" accepts one.
func (o Options) Backend(g graph.View, standing bool) (engine.Backend, error) {
	if o.Manifest != "" && o.Engine != "dist" {
		return nil, fmt.Errorf("snaple: a manifest requires engine dist (got %q)", o.Engine)
	}
	switch o.Engine {
	case "", "local":
		return engine.Local{Workers: o.Workers}, nil
	case "serial":
		return engine.Serial{}, nil
	case "sim", "dist":
	default:
		return nil, fmt.Errorf("snaple: unknown engine %q (%s)", o.Engine, strings.Join(engine.Names(), "|"))
	}
	strat, err := partition.ByName(o.Strategy, o.Seed)
	if err != nil {
		return nil, err
	}
	if o.Engine == "sim" {
		var spec cluster.NodeSpec
		switch o.NodeType {
		case "", "type-II":
			spec = cluster.TypeII()
		case "type-I":
			spec = cluster.TypeI()
		default:
			return nil, fmt.Errorf("snaple: unknown node type %q (type-I|type-II)", o.NodeType)
		}
		return engine.Sim{
			Nodes: o.Nodes, Spec: spec, Strategy: strat,
			MemBudgetBytes: o.MemBudgetBytes, Seed: o.Seed, Workers: o.Workers,
		}, nil
	}
	fo := engine.FleetOptions{
		Addrs: o.WorkerAddrs, Spawn: o.SpawnWorkers, WorkerBin: o.WorkerBin,
		InProc: o.Workers, Replicas: o.Replicas, Strategy: strat, Seed: o.Seed,
		StepTimeout: o.StepTimeout, DialAttempts: o.DialAttempts, Compress: o.WireCompress,
	}
	if o.Manifest != "" {
		f, err := os.Open(o.Manifest)
		if err != nil {
			return nil, fmt.Errorf("snaple: %w", err)
		}
		fo.Manifest, err = graph.ReadManifest(f)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	if standing {
		return engine.OpenFleet(g, fo)
	}
	return engine.Dist(fo), nil
}

// BindFlags binds the flags every SNAPLE command shares to o's fields, each
// defaulting to the field's value at the call: the prediction (-score
// -alpha -klocal -thr -policy -seed), the backend (-engine -workers) and the
// worker fleet (-addrs -spawn -worker-bin -replicas -step-timeout
// -dial-attempts). A command states its defaults once, in the Options it
// binds, and binds its own remaining flags into the same struct.
func (o *Options) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.Score, "score", o.Score, "SNAPLE score (see snaple -scores)")
	fs.Float64Var(&o.Alpha, "alpha", o.Alpha, "linear combinator alpha")
	fs.IntVar(&o.KLocal, "klocal", o.KLocal, "relay sample size (0 = unlimited)")
	fs.IntVar(&o.ThrGamma, "thr", o.ThrGamma, "truncation threshold thrGamma (0 = unlimited)")
	fs.StringVar(&o.Policy, "policy", o.Policy, "relay selection policy: max|min|rnd")
	fs.Uint64Var(&o.Seed, "seed", o.Seed, "run seed: truncation, the rnd policy, the vertex cut and master election")
	fs.StringVar(&o.Engine, "engine", o.Engine, "execution backend: "+strings.Join(engine.Names(), "|"))
	fs.IntVar(&o.Workers, "workers", o.Workers, "worker goroutines for the backend (0 = GOMAXPROCS; for -engine dist without -addrs or -spawn: in-process worker count, 0 = 2)")
	fs.Var((*addrList)(&o.WorkerAddrs), "addrs", "snaple-worker addresses for -engine dist, as one comma-separated `string`")
	fs.IntVar(&o.SpawnWorkers, "spawn", o.SpawnWorkers, "auto-spawn this many local snaple-worker processes for -engine dist")
	fs.StringVar(&o.WorkerBin, "worker-bin", o.WorkerBin, "snaple-worker binary for -spawn (default: found on PATH)")
	fs.IntVar(&o.Replicas, "replicas", o.Replicas, "ship every partition to this many dist workers; a worker death then fails over to a survivor with bit-identical results (0 or 1 = no replication)")
	fs.DurationVar(&o.StepTimeout, "step-timeout", o.StepTimeout, "per-phase deadline on dist superstep exchanges; a wedged worker is declared dead at the deadline (0 = 10m default, negative = unbounded)")
	fs.IntVar(&o.DialAttempts, "dial-attempts", o.DialAttempts, "connect/spawn attempts per dist worker, retried with exponential backoff (0 = 3)")
}

// addrList is -addrs: a comma-separated flag value bound to a []string.
type addrList []string

func (l *addrList) String() string {
	if l == nil {
		return ""
	}
	return strings.Join(*l, ",")
}

func (l *addrList) Set(s string) error {
	*l = nil
	if s != "" {
		*l = strings.Split(s, ",")
	}
	return nil
}

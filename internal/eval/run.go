package eval

import (
	"fmt"
	"io"

	"snaple/internal/cluster"
	"snaple/internal/core"
	"snaple/internal/deploy"
	"snaple/internal/engine"
	"snaple/internal/graph"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies every dataset's vertex count (default 1.0, sized for
	// a small machine; the paper's graphs are ~100-60000x larger).
	Scale float64
	// Seed drives dataset generation, splits, truncation and walks.
	Seed uint64
	// Log receives progress lines; nil discards them.
	Log io.Writer
	// Engine selects the execution backend SNAPLE runs on: "sim" (default)
	// keeps the simulated cluster whose cost columns (seconds, traffic,
	// memory) the paper's tables report; "local" and "serial" run the
	// shared-memory backends and "dist" real TCP worker processes instead —
	// predictions (and therefore recall) are bit-identical, but the
	// simulated cost columns read as zero. Use the shared-memory backends
	// to iterate on quality experiments quickly.
	Engine string
	// Workers bounds each backend's host goroutines (0 = GOMAXPROCS). It
	// never affects results or simulated costs.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	fmt.Fprintf(o.Log, format+"\n", args...)
}

// The paper's reference deployments: the simulated clusters the experiments
// run on.

// FourTypeII is the 80-core deployment of Table 5.
func FourTypeII() cluster.Config { return cluster.Config{Nodes: 4, Spec: cluster.TypeII()} }

// OneTypeII is the single-machine deployment of Table 6.
func OneTypeII() cluster.Config { return cluster.Config{Nodes: 1, Spec: cluster.TypeII()} }

// TypeIDeployment returns an n-node type-I deployment (8 cores each).
func TypeIDeployment(nodes int) cluster.Config {
	return cluster.Config{Nodes: nodes, Spec: cluster.TypeI()}
}

// TypeIIDeployment returns an n-node type-II deployment (20 cores each).
func TypeIIDeployment(nodes int) cluster.Config {
	return cluster.Config{Nodes: nodes, Spec: cluster.TypeII()}
}

// sim maps a deployment onto the engine layer's Sim backend with the
// experiment-wide worker bound.
func (o Options) sim(d cluster.Config, seed uint64) engine.Sim {
	return engine.Sim{Nodes: d.Nodes, Spec: d.Spec, MemBudgetBytes: d.MemBudgetBytes, Seed: seed, Workers: o.Workers}
}

// runSnaple runs Algorithm 2 over g on the backend selected by opts: the
// simulated cluster d by default, any other engine through deploy.Options'
// one resolver. The predictions are identical across backends. The sim
// backend reports the simulated costs; the others report only their own, so
// the simulated cost fields read zero.
func runSnaple(opts Options, g graph.View, d cluster.Config, cfg core.Config) (core.Predictions, engine.Stats, error) {
	if opts.Engine == "" || opts.Engine == "sim" {
		return opts.sim(d, cfg.Seed).Predict(g, cfg)
	}
	be, err := deploy.Options{Engine: opts.Engine, Workers: opts.Workers, Seed: cfg.Seed}.Backend(g, false)
	if err != nil {
		return nil, engine.Stats{}, fmt.Errorf("eval: %w", err)
	}
	return be.Predict(g, cfg)
}

// snapleConfig assembles a Config from a Table 3 score name with the
// harness-wide defaults (α = 0.9, k = 5).
func snapleConfig(score string, thr, klocal int, seed uint64) (core.Config, error) {
	spec, err := core.ScoreByName(score, 0.9)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Score:    spec,
		K:        5,
		KLocal:   klocal,
		ThrGamma: thr,
		Seed:     seed,
	}, nil
}

// loadSplit generates a dataset analog and its 1-edge-per-vertex split.
func loadSplit(name string, opts Options, removedPerVertex int) (*Split, *graph.Digraph, error) {
	ds, err := DatasetByName(name)
	if err != nil {
		return nil, nil, err
	}
	g, err := ds.Generate(opts.Scale, opts.Seed)
	if err != nil {
		return nil, nil, err
	}
	split, err := MakeSplit(g, removedPerVertex, opts.Seed)
	if err != nil {
		return nil, nil, err
	}
	return split, g, nil
}

// inf renders a sampling parameter the way the paper's tables do.
func inf(v int) string {
	if v == core.Unlimited {
		return "inf"
	}
	return fmt.Sprintf("%d", v)
}

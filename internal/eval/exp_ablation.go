package eval

import (
	"fmt"
	"io"

	"snaple/internal/core"
	"snaple/internal/partition"
)

// Ablations beyond the paper's figures: the sensitivity of two design
// choices the paper fixes — the linear combinator's α (0.9) and the
// vertex-cut strategy (PowerGraph's replication-versus-balance trade-off).
// These are extensions, not reproductions.

// AlphaRow is one point of the α sweep for the linear combinator.
type AlphaRow struct {
	Dataset string
	Alpha   float64
	Recall  float64
}

// AlphaSweep measures recall of linearSum as α moves from 0 (path value is
// all sim(v,z)) to 1 (all sim(u,v)). The paper fixes α = 0.9 as "found to
// return the best predictions"; this ablation checks that choice on the
// analogs.
type AlphaSweep struct {
	Rows []AlphaRow
}

// RunAlphaSweep executes the sweep on livejournal.
func RunAlphaSweep(opts Options) (*AlphaSweep, error) {
	opts = opts.withDefaults()
	dep := FourTypeII()
	out := &AlphaSweep{}
	split, _, err := loadSplit("livejournal", opts, 1)
	if err != nil {
		return nil, err
	}
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1.0} {
		spec, err := core.ScoreByName("linearSum", alpha)
		if err != nil {
			return nil, err
		}
		cfg := core.Config{Score: spec, K: 5, KLocal: 20, ThrGamma: 200, Seed: opts.Seed}
		pred, _, err := runSnaple(opts, split.Train, dep, cfg)
		if err != nil {
			return nil, fmt.Errorf("alpha sweep %v: %w", alpha, err)
		}
		rec := Recall(pred, split)
		out.Rows = append(out.Rows, AlphaRow{Dataset: "livejournal", Alpha: alpha, Recall: rec})
		opts.logf("alpha: %.2f recall=%.3f", alpha, rec)
	}
	return out, nil
}

// Fprint renders the sweep.
func (a *AlphaSweep) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Ablation: linear-combinator alpha sweep (linearSum, klocal=20)")
	fmt.Fprintf(w, "%-8s %-8s\n", "alpha", "recall")
	for _, r := range a.Rows {
		fmt.Fprintf(w, "%-8.2f %-8.3f\n", r.Alpha, r.Recall)
	}
}

// PartitionRow compares one vertex-cut strategy.
type PartitionRow struct {
	Strategy          string
	ReplicationFactor float64
	Balance           float64
	CrossBytes        int64
	SimSeconds        float64
	Recall            float64
}

// PartitionAblation compares the vertex-cut strategies on the same
// prediction job: replication factor drives synchronisation traffic, the
// design trade-off of Section 2.4 / PowerGraph.
type PartitionAblation struct {
	Rows []PartitionRow
}

// RunPartitionAblation executes linearSum on livejournal under each
// strategy.
func RunPartitionAblation(opts Options) (*PartitionAblation, error) {
	opts = opts.withDefaults()
	dep := FourTypeII()
	out := &PartitionAblation{}
	split, _, err := loadSplit("livejournal", opts, 1)
	if err != nil {
		return nil, err
	}
	cfg, err := snapleConfig("linearSum", 200, 20, opts.Seed)
	if err != nil {
		return nil, err
	}
	for _, strat := range []partition.Strategy{
		partition.HashEdge{Seed: opts.Seed},
		partition.HashSource{Seed: opts.Seed},
		partition.Greedy{},
	} {
		assign, err := strat.Partition(split.Train, dep.TotalCores())
		if err != nil {
			return nil, err
		}
		stats := partition.ComputeStats(split.Train, assign)
		sim := opts.sim(dep, opts.Seed)
		sim.Strategy = strat
		pred, st, err := sim.Predict(split.Train, cfg)
		if err != nil {
			return nil, fmt.Errorf("partition ablation %s: %w", strat.Name(), err)
		}
		row := PartitionRow{
			Strategy:          strat.Name(),
			ReplicationFactor: stats.ReplicationFactor,
			Balance:           stats.Balance,
			CrossBytes:        st.CrossBytes,
			SimSeconds:        st.SimSeconds,
			Recall:            Recall(pred, split),
		}
		out.Rows = append(out.Rows, row)
		opts.logf("partition: %s rf=%.2f cross=%dMiB recall=%.3f",
			strat.Name(), row.ReplicationFactor, row.CrossBytes>>20, row.Recall)
	}
	return out, nil
}

// Fprint renders the comparison.
func (p *PartitionAblation) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Ablation: vertex-cut strategy (linearSum, klocal=20, livejournal)")
	fmt.Fprintf(w, "%-13s %-6s %-9s %-11s %-9s %-8s\n",
		"strategy", "RF", "balance", "cross MiB", "sim(s)", "recall")
	for _, r := range p.Rows {
		fmt.Fprintf(w, "%-13s %-6.2f %-9.2f %-11.1f %-9.3f %-8.3f\n",
			r.Strategy, r.ReplicationFactor, r.Balance,
			float64(r.CrossBytes)/(1<<20), r.SimSeconds, r.Recall)
	}
}

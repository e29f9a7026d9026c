package eval

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"snaple/internal/cluster"
	"snaple/internal/engine"
)

// ExhaustionRow records whether one system survived one dataset under a
// bounded per-node memory budget.
type ExhaustionRow struct {
	Dataset   string
	System    string // "BASELINE" or "SNAPLE"
	Completed bool
	// PeakBytes is the highest per-node memory observed (at abort time for
	// failed runs).
	PeakBytes int64
	Err       string
}

// Exhaustion reproduces the resource-exhaustion result of Section 5.3:
// "orkut and twitter-rv cause BASELINE to fail by exhausting the available
// memory", while SNAPLE completes everywhere. The per-node budget scales the
// type-II node's 128 GB down to the analog scale; at the default budget the
// failure pattern matches the paper's (BASELINE dies exactly on orkut and
// twitter-rv).
type Exhaustion struct {
	BudgetBytes int64
	Rows        []ExhaustionRow
}

// DefaultExhaustionBudget is the per-node budget (128 MiB) calibrated for
// Scale=1 analogs — the scaled-down stand-in for the type-II node's 128 GB.
// Unbudgeted peaks at scale 1: BASELINE needs ~13/61/85 MiB per node on
// gowalla/pokec/livejournal and >1 GiB on orkut/twitter-rv; SNAPLE
// (thrΓ=200, klocal=20) stays below 76 MiB everywhere. 128 MiB therefore
// reproduces the paper's exact failure pattern: BASELINE dies on orkut and
// twitter-rv, everything else completes.
const DefaultExhaustionBudget = int64(128 << 20)

// RunExhaustion executes both systems on all five analogs under the budget.
// The experiment exists to exercise the simulated memory model, so it always
// runs on the sim backend regardless of Options.Engine — any other backend
// enforces no budget and would fabricate the survival column.
func RunExhaustion(opts Options) (*Exhaustion, error) {
	opts = opts.withDefaults()
	out := &Exhaustion{BudgetBytes: DefaultExhaustionBudget}
	dep := FourTypeII()
	dep.MemBudgetBytes = out.BudgetBytes
	sim := opts.sim(dep, opts.Seed)
	cfg, err := snapleConfig("linearSum", 200, 20, opts.Seed)
	if err != nil {
		return nil, err
	}
	// record adds one system's row: running out of memory is a verdict, any
	// other failure aborts the experiment.
	record := func(name, system string, st engine.Stats, err error) error {
		row := ExhaustionRow{Dataset: name, System: system, Completed: err == nil, PeakBytes: st.MemPeakBytes}
		if err != nil {
			if !errors.Is(err, cluster.ErrMemoryExhausted) {
				return fmt.Errorf("exhaustion: %s on %s failed unexpectedly: %w", strings.ToLower(system), name, err)
			}
			row.Err = "memory exhausted"
		}
		out.Rows = append(out.Rows, row)
		opts.logf("exhaustion: %s %s completed=%v peak=%dMiB", name, system, row.Completed, row.PeakBytes>>20)
		return nil
	}
	for _, name := range DatasetNames() {
		split, _, err := loadSplit(name, opts, 1)
		if err != nil {
			return nil, err
		}
		_, bst, berr := sim.PredictBaseline(split.Train, 5)
		if err := record(name, "BASELINE", bst, berr); err != nil {
			return nil, err
		}
		_, sst, serr := sim.Predict(split.Train, cfg)
		if err := record(name, "SNAPLE", sst, serr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Fprint renders the survival table.
func (e *Exhaustion) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Resource exhaustion under %d MiB/node (Section 5.3)\n", e.BudgetBytes>>20)
	fmt.Fprintf(w, "%-13s %-10s %-10s %-12s %s\n", "dataset", "system", "completed", "peak(MiB)", "error")
	for _, r := range e.Rows {
		fmt.Fprintf(w, "%-13s %-10s %-10v %-12d %s\n",
			r.Dataset, r.System, r.Completed, r.PeakBytes>>20, r.Err)
	}
}

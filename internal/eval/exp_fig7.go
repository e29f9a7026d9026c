package eval

import (
	"fmt"
	"io"

	"snaple/internal/core"
)

// Figure7Row is one point of Figure 7: recall of one neighbour-selection
// policy at one klocal on livejournal.
type Figure7Row struct {
	Score  string
	Policy string // "max", "min", "rnd"
	KLocal int
	Recall float64
}

// Figure7 reproduces Figure 7: Γmax vs Γmin vs Γrnd for
// klocal ∈ {5,10,20,40,80} and the scores counter, linearSum and PPR.
type Figure7 struct {
	Dataset string
	Rows    []Figure7Row
}

// RunFigure7 executes the selection-policy study.
func RunFigure7(opts Options) (*Figure7, error) {
	opts = opts.withDefaults()
	dep := FourTypeII()
	fig := &Figure7{Dataset: "livejournal"}
	split, _, err := loadSplit(fig.Dataset, opts, 1)
	if err != nil {
		return nil, err
	}
	policies := []core.SelectionPolicy{core.SelectMax, core.SelectMin, core.SelectRnd}
	for _, score := range []string{"counter", "linearSum", "PPR"} {
		for _, klocal := range []int{5, 10, 20, 40, 80} {
			for _, pol := range policies {
				cfg, err := snapleConfig(score, 200, klocal, opts.Seed)
				if err != nil {
					return nil, err
				}
				cfg.Policy = pol
				pred, _, err := runSnaple(opts, split.Train, dep, cfg)
				if err != nil {
					return nil, fmt.Errorf("fig7: %s %s klocal=%d: %w", score, pol, klocal, err)
				}
				rec := Recall(pred, split)
				fig.Rows = append(fig.Rows, Figure7Row{
					Score: score, Policy: pol.String(), KLocal: klocal, Recall: rec,
				})
				opts.logf("fig7: %s policy=%s klocal=%d recall=%.3f", score, pol, klocal, rec)
			}
		}
	}
	return fig, nil
}

// Fprint renders the three panels.
func (f *Figure7) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Figure 7: recall per selection policy on %s\n", f.Dataset)
	fmt.Fprintf(w, "%-11s %-7s %-8s %-8s %-8s\n", "score", "klocal", "Γmax", "Γmin", "Γrnd")
	type key struct {
		score  string
		klocal int
	}
	cells := make(map[key]map[string]float64)
	var order []key
	for _, r := range f.Rows {
		k := key{r.Score, r.KLocal}
		if cells[k] == nil {
			cells[k] = make(map[string]float64)
			order = append(order, k)
		}
		cells[k][r.Policy] = r.Recall
	}
	for _, k := range order {
		fmt.Fprintf(w, "%-11s %-7d %-8.3f %-8.3f %-8.3f\n",
			k.score, k.klocal, cells[k]["max"], cells[k]["min"], cells[k]["rnd"])
	}
}

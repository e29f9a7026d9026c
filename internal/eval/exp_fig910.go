package eval

import (
	"fmt"
	"io"

	"snaple/internal/core"
)

// Figure9Row is one point of Figure 9: recall when returning k predictions.
type Figure9Row struct {
	Dataset string
	Score   string
	K       int
	Recall  float64
}

// Figure9 reproduces Figure 9: recall against the number of returned
// predictions k ∈ {5,10,15,20} with klocal = 80, for the Sum-family scores
// on livejournal and pokec.
type Figure9 struct {
	Rows []Figure9Row
}

// RunFigure9 executes the k sweep. Each (dataset, score) pair runs once
// with k = 20; recall at smaller k is evaluated on list prefixes (the lists
// are best-first, so recall@k is exactly the paper's metric).
func RunFigure9(opts Options) (*Figure9, error) {
	opts = opts.withDefaults()
	dep := FourTypeII()
	fig := &Figure9{}
	ks := []int{5, 10, 15, 20}
	for _, name := range []string{"livejournal", "pokec"} {
		split, _, err := loadSplit(name, opts, 1)
		if err != nil {
			return nil, err
		}
		for _, score := range core.SumFamilyScores() {
			cfg, err := snapleConfig(score, 200, 80, opts.Seed)
			if err != nil {
				return nil, err
			}
			cfg.K = 20
			pred, _, err := runSnaple(opts, split.Train, dep, cfg)
			if err != nil {
				return nil, fmt.Errorf("fig9: %s %s: %w", name, score, err)
			}
			for _, k := range ks {
				rec := RecallAt(pred, split, k)
				fig.Rows = append(fig.Rows, Figure9Row{Dataset: name, Score: score, K: k, Recall: rec})
				opts.logf("fig9: %s %s k=%d recall=%.3f", name, score, k, rec)
			}
		}
	}
	return fig, nil
}

// Fprint renders both panels.
func (f *Figure9) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Figure 9: recall vs number of recommendations k (klocal=80)")
	fmt.Fprintf(w, "%-13s %-11s %-4s %-8s\n", "dataset", "score", "k", "recall")
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%-13s %-11s %-4d %-8.3f\n", r.Dataset, r.Score, r.K, r.Recall)
	}
}

// Figure10Row is one point of Figure 10: recall when r edges per vertex are
// hidden.
type Figure10Row struct {
	Dataset string
	Score   string
	Removed int
	Recall  float64
}

// Figure10 reproduces Figure 10: recall against the number of removed edges
// per vertex (1..5) with klocal = 80, Sum-family scores, livejournal and
// pokec.
type Figure10 struct {
	Rows []Figure10Row
}

// RunFigure10 executes the removed-edges sweep.
func RunFigure10(opts Options) (*Figure10, error) {
	opts = opts.withDefaults()
	dep := FourTypeII()
	fig := &Figure10{}
	for _, name := range []string{"livejournal", "pokec"} {
		ds, err := DatasetByName(name)
		if err != nil {
			return nil, err
		}
		g, err := ds.Generate(opts.Scale, opts.Seed)
		if err != nil {
			return nil, err
		}
		for removed := 1; removed <= 5; removed++ {
			split, err := MakeSplit(g, removed, opts.Seed)
			if err != nil {
				return nil, err
			}
			for _, score := range core.SumFamilyScores() {
				cfg, err := snapleConfig(score, 200, 80, opts.Seed)
				if err != nil {
					return nil, err
				}
				pred, _, err := runSnaple(opts, split.Train, dep, cfg)
				if err != nil {
					return nil, fmt.Errorf("fig10: %s %s removed=%d: %w", name, score, removed, err)
				}
				rec := Recall(pred, split)
				fig.Rows = append(fig.Rows, Figure10Row{
					Dataset: name, Score: score, Removed: removed, Recall: rec,
				})
				opts.logf("fig10: %s %s removed=%d recall=%.3f", name, score, removed, rec)
			}
		}
	}
	return fig, nil
}

// Fprint renders both panels.
func (f *Figure10) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Figure 10: recall vs removed edges per vertex (klocal=80)")
	fmt.Fprintf(w, "%-13s %-11s %-8s %-8s\n", "dataset", "score", "removed", "recall")
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%-13s %-11s %-8d %-8.3f\n", r.Dataset, r.Score, r.Removed, r.Recall)
	}
}

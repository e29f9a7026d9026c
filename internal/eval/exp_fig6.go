package eval

import (
	"fmt"
	"io"

	"snaple/internal/graph"
)

// Figure6CDF is one dataset's out-degree CDF (panels a-c of Figure 6).
type Figure6CDF struct {
	Dataset string
	Points  []graph.CDFPoint
}

// Figure6Row is one point of panel d: recall under a truncation threshold,
// normalised to the recall at thrΓ = 10.
type Figure6Row struct {
	Dataset        string
	ThrGamma       int
	Recall         float64
	ImprovementPct float64 // 100 * (recall/recall@10 - 1)
	// FracTruncated is the fraction of vertices whose degree exceeds the
	// threshold (the minority actually affected, Section 5.5).
	FracTruncated float64
}

// Figure6 reproduces Figure 6: degree CDFs of the three large analogs and
// the relative recall improvement as thrΓ grows from 10 to 100 (linearSum,
// klocal = 80).
type Figure6 struct {
	CDFs []Figure6CDF
	Rows []Figure6Row
}

// figure6Thresholds are the thrΓ values the paper sweeps.
func figure6Thresholds() []int { return []int{10, 20, 40, 80, 100} }

// RunFigure6 executes the truncation study.
func RunFigure6(opts Options) (*Figure6, error) {
	opts = opts.withDefaults()
	dep := FourTypeII()
	fig := &Figure6{}
	cdfAt := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

	for _, name := range []string{"orkut", "livejournal", "twitter-rv"} {
		split, g, err := loadSplit(name, opts, 1)
		if err != nil {
			return nil, err
		}
		fig.CDFs = append(fig.CDFs, Figure6CDF{
			Dataset: name,
			Points:  graph.OutDegreeCDF(g, append([]int(nil), cdfAt...)),
		})
		var recallAt10 float64
		for _, thr := range figure6Thresholds() {
			cfg, err := snapleConfig("linearSum", thr, 80, opts.Seed)
			if err != nil {
				return nil, err
			}
			pred, _, err := runSnaple(opts, split.Train, dep, cfg)
			if err != nil {
				return nil, fmt.Errorf("fig6: %s thr=%d: %w", name, thr, err)
			}
			rec := Recall(pred, split)
			if thr == 10 {
				recallAt10 = rec
			}
			row := Figure6Row{
				Dataset:       name,
				ThrGamma:      thr,
				Recall:        rec,
				FracTruncated: graph.FractionTruncated(split.Train, thr),
			}
			if recallAt10 > 0 {
				row.ImprovementPct = 100 * (rec/recallAt10 - 1)
			}
			fig.Rows = append(fig.Rows, row)
			opts.logf("fig6: %s thr=%d recall=%.3f (+%.1f%%) truncated=%.3f",
				name, thr, rec, row.ImprovementPct, row.FracTruncated)
		}
	}
	return fig, nil
}

// Fprint renders the CDF panels and the improvement panel.
func (f *Figure6) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Figure 6a-c: out-degree CDFs")
	for _, c := range f.CDFs {
		fmt.Fprintf(w, "%-14s", c.Dataset)
		for _, p := range c.Points {
			fmt.Fprintf(w, " %d:%.3f", p.Degree, p.Fraction)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nFigure 6d: recall improvement vs thrΓ (baseline thrΓ=10, linearSum, klocal=80)")
	fmt.Fprintf(w, "%-14s %-6s %-8s %-12s %-10s\n", "dataset", "thrΓ", "recall", "improve(%)", "truncated")
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%-14s %-6d %-8.3f %-12.1f %-10.3f\n",
			r.Dataset, r.ThrGamma, r.Recall, r.ImprovementPct, r.FracTruncated)
	}
}

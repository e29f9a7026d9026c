package eval

import (
	"fmt"
	"io"
)

// Figure8Point is one (time, recall) point: a score configuration at one
// klocal on one dataset.
type Figure8Point struct {
	Dataset    string
	Score      string
	Aggregator string // "Sum", "Mean", "Geom"
	KLocal     int
	Seconds    float64 // simulated cluster seconds
	Recall     float64
}

// Figure8 reproduces Figure 8: computing time against recall for every
// Table 3 scoring configuration at klocal ∈ {5,10,20,40,80}, grouped by
// aggregator, on livejournal and twitter-rv.
type Figure8 struct {
	Points []Figure8Point
}

// figure8Scores maps each aggregator panel to its score lineup.
func figure8Scores() map[string][]string {
	return map[string][]string{
		"Sum":  {"counter", "euclSum", "geomSum", "linearSum", "PPR"},
		"Mean": {"euclMean", "geomMean", "linearMean"},
		"Geom": {"euclGeom", "geomGeom", "linearGeom"},
	}
}

// RunFigure8 executes the scoring-configuration sweep.
func RunFigure8(opts Options) (*Figure8, error) {
	opts = opts.withDefaults()
	dep := FourTypeII()
	fig := &Figure8{}
	for _, name := range []string{"livejournal", "twitter-rv"} {
		split, _, err := loadSplit(name, opts, 1)
		if err != nil {
			return nil, err
		}
		for _, agg := range []string{"Sum", "Mean", "Geom"} {
			for _, score := range figure8Scores()[agg] {
				for _, klocal := range []int{5, 10, 20, 40, 80} {
					cfg, err := snapleConfig(score, 200, klocal, opts.Seed)
					if err != nil {
						return nil, err
					}
					pred, st, err := runSnaple(opts, split.Train, dep, cfg)
					if err != nil {
						return nil, fmt.Errorf("fig8: %s %s klocal=%d: %w", name, score, klocal, err)
					}
					p := Figure8Point{
						Dataset: name, Score: score, Aggregator: agg, KLocal: klocal,
						Seconds: st.SimSeconds, Recall: Recall(pred, split),
					}
					fig.Points = append(fig.Points, p)
					opts.logf("fig8: %s %s klocal=%d sim=%.3fs recall=%.3f",
						name, score, klocal, p.Seconds, p.Recall)
				}
			}
		}
	}
	return fig, nil
}

// Fprint renders the six panels (aggregator x dataset) as tables of
// (klocal, seconds, recall) series per score.
func (f *Figure8) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Figure 8: computing time vs recall per scoring configuration")
	for _, agg := range []string{"Sum", "Mean", "Geom"} {
		for _, ds := range []string{"livejournal", "twitter-rv"} {
			var rows []Figure8Point
			for _, p := range f.Points {
				if p.Aggregator == agg && p.Dataset == ds {
					rows = append(rows, p)
				}
			}
			if len(rows) == 0 {
				continue
			}
			fmt.Fprintf(w, "\n(%s aggregator, %s)\n", agg, ds)
			fmt.Fprintf(w, "%-12s %-7s %-10s %-8s\n", "score", "klocal", "time(s)", "recall")
			for _, p := range rows {
				fmt.Fprintf(w, "%-12s %-7d %-10.3f %-8.3f\n", p.Score, p.KLocal, p.Seconds, p.Recall)
			}
		}
	}
}

// BestRecall returns the best-recall point for a dataset (used by reports).
func (f *Figure8) BestRecall(dataset string) (Figure8Point, bool) {
	var best Figure8Point
	found := false
	for _, p := range f.Points {
		if p.Dataset != dataset {
			continue
		}
		if !found || p.Recall > best.Recall ||
			(p.Recall == best.Recall && p.Seconds < best.Seconds) {
			best = p
			found = true
		}
	}
	return best, found
}

// String summarises the sweep extent.
func (f *Figure8) String() string {
	return fmt.Sprintf("figure8{%d points}", len(f.Points))
}

package eval

import (
	"fmt"
	"io"
	"time"

	"snaple/internal/walk"
)

// Figure11Point is one point of Figure 11: the random-walk comparator at one
// (w, d) setting.
type Figure11Point struct {
	Dataset string
	Walks   int
	Depth   int
	Seconds float64 // host wall-clock seconds (single-machine system)
	Recall  float64
}

// Figure11 reproduces Figure 11: recall and computing time of the
// Cassovary-style PPR-by-walks predictor for w ∈ {10,100,1000} and
// d ∈ {3,4,5,10} on livejournal and twitter-rv.
type Figure11 struct {
	Points []Figure11Point
}

// RunFigure11 executes the walk sweep.
func RunFigure11(opts Options) (*Figure11, error) {
	opts = opts.withDefaults()
	fig := &Figure11{}
	for _, name := range []string{"livejournal", "twitter-rv"} {
		split, _, err := loadSplit(name, opts, 1)
		if err != nil {
			return nil, err
		}
		for _, w := range []int{10, 100, 1000} {
			for _, d := range []int{3, 4, 5, 10} {
				start := time.Now()
				pred, err := walk.Predict(split.Train, walk.Config{
					Walks: w, Depth: d, K: 5, Seed: opts.Seed,
				})
				if err != nil {
					return nil, fmt.Errorf("fig11: %s w=%d d=%d: %w", name, w, d, err)
				}
				p := Figure11Point{
					Dataset: name, Walks: w, Depth: d,
					Seconds: time.Since(start).Seconds(),
					Recall:  Recall(pred, split),
				}
				fig.Points = append(fig.Points, p)
				opts.logf("fig11: %s w=%d d=%d wall=%.2fs recall=%.3f", name, w, d, p.Seconds, p.Recall)
			}
		}
	}
	return fig, nil
}

// Best returns the dataset's best configuration: highest recall, ties broken
// by shortest time (the paper's "best recall in the shortest time").
func (f *Figure11) Best(dataset string) (Figure11Point, bool) {
	var best Figure11Point
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

// Fprint renders both panels.
func (f *Figure11) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Figure 11: random-walk PPR (Cassovary analog), recall vs time")
	fmt.Fprintf(w, "%-13s %-6s %-4s %-10s %-8s\n", "dataset", "w", "d", "time(s)", "recall")
	for _, p := range f.Points {
		fmt.Fprintf(w, "%-13s %-6d %-4d %-10.2f %-8.3f\n", p.Dataset, p.Walks, p.Depth, p.Seconds, p.Recall)
	}
}

// Table6Row compares the two single-machine systems on one dataset.
type Table6Row struct {
	Dataset string
	// Cassovary's best configuration and results.
	Walks, Depth     int
	CassovaryRecall  float64
	CassovarySeconds float64
	SnapleRecall     float64
	SnapleSeconds    float64
	Speedup          float64
}

// Table6 reproduces Table 6: SNAPLE on a single type-II node (klocal = 20)
// against the best Cassovary configuration found in Figure 11. Both systems
// run on the host and are compared on host wall-clock time.
type Table6 struct {
	Rows []Table6Row
}

// RunTable6 executes the single-machine comparison. If fig11 is nil the walk
// sweep is run first to find each dataset's best configuration.
func RunTable6(opts Options, fig11 *Figure11) (*Table6, error) {
	opts = opts.withDefaults()
	if fig11 == nil {
		var err error
		fig11, err = RunFigure11(opts)
		if err != nil {
			return nil, err
		}
	}
	dep := OneTypeII()
	t6 := &Table6{}
	for _, name := range []string{"livejournal", "twitter-rv"} {
		best, ok := fig11.Best(name)
		if !ok {
			return nil, fmt.Errorf("table6: no figure-11 points for %s", name)
		}
		split, _, err := loadSplit(name, opts, 1)
		if err != nil {
			return nil, err
		}
		cfg, err := snapleConfig("linearSum", 200, 20, opts.Seed)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		pred, _, err := runSnaple(opts, split.Train, dep, cfg)
		if err != nil {
			return nil, fmt.Errorf("table6: snaple on %s: %w", name, err)
		}
		wall := time.Since(start).Seconds()
		row := Table6Row{
			Dataset:          name,
			Walks:            best.Walks,
			Depth:            best.Depth,
			CassovaryRecall:  best.Recall,
			CassovarySeconds: best.Seconds,
			SnapleRecall:     Recall(pred, split),
			SnapleSeconds:    wall,
		}
		if wall > 0 {
			row.Speedup = best.Seconds / wall
		}
		t6.Rows = append(t6.Rows, row)
		opts.logf("table6: %s cassovary(w=%d,d=%d)=%.3f/%.2fs snaple=%.3f/%.2fs speedup=%.2f",
			name, best.Walks, best.Depth, best.Recall, best.Seconds,
			row.SnapleRecall, row.SnapleSeconds, row.Speedup)
	}
	return t6, nil
}

// Fprint renders the table.
func (t *Table6) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Table 6: single-machine comparison (one type-II node, host wall time)")
	fmt.Fprintf(w, "%-13s %-22s %-22s %-8s\n", "dataset", "CASSOVARY (best w,d)", "SNAPLE (klocal=20)", "speedup")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-13s %.3f / %6.2fs (w=%d,d=%d)   %.3f / %6.2fs        %-8.2f\n",
			r.Dataset, r.CassovaryRecall, r.CassovarySeconds, r.Walks, r.Depth,
			r.SnapleRecall, r.SnapleSeconds, r.Speedup)
	}
}

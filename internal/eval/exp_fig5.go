package eval

import (
	"fmt"
	"io"
	"slices"

	"snaple/internal/cluster"
)

// Figure5Point is one point of the scalability plot: the execution time of
// the linearSum scoring on one dataset/deployment/klocal combination.
type Figure5Point struct {
	Dataset    string
	Edges      int
	Deployment string
	NodeType   string // "type-I" or "type-II"
	Cores      int
	KLocal     int
	Seconds    float64 // simulated cluster seconds
	Recall     float64
}

// Figure5 reproduces Figure 5: SNAPLE's scaling with graph size for several
// core counts on both node types, for klocal ∈ {40, 80}.
type Figure5 struct {
	Points []Figure5Point
}

// RunFigure5 executes the scalability sweep over the livejournal, orkut and
// twitter-rv analogs (the paper's 68M/223M/1.4B-edge series).
func RunFigure5(opts Options) (*Figure5, error) {
	opts = opts.withDefaults()
	deployments := []cluster.Config{
		TypeIDeployment(8), TypeIDeployment(16), TypeIDeployment(32), // 64, 128, 256 cores
		TypeIIDeployment(4), TypeIIDeployment(8), // 80, 160 cores
	}
	fig := &Figure5{}
	for _, name := range []string{"livejournal", "orkut", "twitter-rv"} {
		split, _, err := loadSplit(name, opts, 1)
		if err != nil {
			return nil, err
		}
		for _, klocal := range []int{40, 80} {
			cfg, err := snapleConfig("linearSum", 200, klocal, opts.Seed)
			if err != nil {
				return nil, err
			}
			for _, dep := range deployments {
				pred, st, err := runSnaple(opts, split.Train, dep, cfg)
				if err != nil {
					return nil, fmt.Errorf("fig5: %s on %s: %w", name, dep, err)
				}
				p := Figure5Point{
					Dataset:    name,
					Edges:      split.Train.NumEdges(),
					Deployment: dep.String(),
					NodeType:   dep.Spec.Name,
					Cores:      dep.TotalCores(),
					KLocal:     klocal,
					Seconds:    st.SimSeconds,
					Recall:     Recall(pred, split),
				}
				fig.Points = append(fig.Points, p)
				opts.logf("fig5: %s klocal=%d %s sim=%.3fs recall=%.3f",
					name, klocal, dep, p.Seconds, p.Recall)
			}
		}
	}
	return fig, nil
}

// Fprint renders the four panels of Figure 5 as series tables.
func (f *Figure5) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Figure 5: execution time (simulated s) vs graph size")
	for _, klocal := range []int{40, 80} {
		for _, nodeType := range []string{"type-I", "type-II"} {
			fmt.Fprintf(w, "\n(klocal=%d, %s nodes)\n", klocal, nodeType)
			fmt.Fprintf(w, "%-14s %-10s", "dataset", "edges")
			cores := f.coresFor(nodeType)
			for _, c := range cores {
				fmt.Fprintf(w, " %10s", fmt.Sprintf("%d cores", c))
			}
			fmt.Fprintln(w)
			for _, ds := range []string{"livejournal", "orkut", "twitter-rv"} {
				var edges int
				row := make(map[int]float64)
				for _, p := range f.Points {
					if p.Dataset == ds && p.KLocal == klocal && p.NodeType == nodeType {
						row[p.Cores] = p.Seconds
						edges = p.Edges
					}
				}
				if len(row) == 0 {
					continue
				}
				fmt.Fprintf(w, "%-14s %-10d", ds, edges)
				for _, c := range cores {
					if s, ok := row[c]; ok {
						fmt.Fprintf(w, " %10.3f", s)
					} else {
						fmt.Fprintf(w, " %10s", "-")
					}
				}
				fmt.Fprintln(w)
			}
		}
	}
}

func (f *Figure5) coresFor(nodeType string) []int {
	var out []int
	for _, p := range f.Points {
		if p.NodeType == nodeType {
			out = append(out, p.Cores)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

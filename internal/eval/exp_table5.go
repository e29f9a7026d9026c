package eval

import (
	"fmt"
	"io"

	"snaple/internal/cluster"
)

// Table5Row is one line of Table 5: a system/configuration evaluated on one
// dataset.
type Table5Row struct {
	Dataset  string
	System   string // "BASELINE" or a Table 3 score name
	ThrGamma int    // 0 = ∞
	KLocal   int    // 0 = ∞
	Recall   float64
	Seconds  float64 // simulated cluster seconds
	// Gain and Speedup compare against the dataset's BASELINE row
	// (1.0 for the baseline itself).
	Gain    float64
	Speedup float64
}

// Table5 reproduces Table 5: BASELINE against 12 SNAPLE configurations on
// gowalla, pokec and livejournal, on the 80-core type-II deployment.
type Table5 struct {
	Deployment cluster.Config
	Datasets   []string
	Rows       []Table5Row
}

// Table5Config is one SNAPLE configuration of Table 5.
type Table5Config struct {
	Score       string
	Thr, KLocal int
}

// Table5Configs returns the paper's 12 SNAPLE configurations: the scores
// linearSum, counter and PPR crossed with thrΓ and klocal ∈ {∞, 20}.
func Table5Configs() []Table5Config {
	var out []Table5Config
	for _, lim := range [][2]int{{0, 0}, {20, 0}, {0, 20}, {20, 20}} {
		for _, score := range []string{"linearSum", "counter", "PPR"} {
			out = append(out, Table5Config{score, lim[0], lim[1]})
		}
	}
	return out
}

// RunTable5 executes the comparison.
func RunTable5(opts Options) (*Table5, error) {
	opts = opts.withDefaults()
	dep := FourTypeII()
	t5 := &Table5{Deployment: dep, Datasets: []string{"gowalla", "pokec", "livejournal"}}

	for _, name := range t5.Datasets {
		split, _, err := loadSplit(name, opts, 1)
		if err != nil {
			return nil, err
		}
		opts.logf("table5: %s train=%s removed=%d", name, split.Train, split.NumRemoved)

		basePred, baseSt, err := opts.sim(dep, opts.Seed).PredictBaseline(split.Train, 5)
		if err != nil {
			return nil, fmt.Errorf("table5: baseline on %s: %w", name, err)
		}
		baseRecall := Recall(basePred, split)
		baseSeconds := baseSt.SimSeconds
		t5.Rows = append(t5.Rows, Table5Row{
			Dataset: name, System: "BASELINE",
			Recall: baseRecall, Seconds: baseSeconds, Gain: 1, Speedup: 1,
		})
		opts.logf("table5: %s BASELINE recall=%.3f sim=%.2fs", name, baseRecall, baseSeconds)

		for _, c := range Table5Configs() {
			cfg, err := snapleConfig(c.Score, c.Thr, c.KLocal, opts.Seed)
			if err != nil {
				return nil, err
			}
			pred, st, err := runSnaple(opts, split.Train, dep, cfg)
			if err != nil {
				return nil, fmt.Errorf("table5: %s %s: %w", name, c.Score, err)
			}
			rec := Recall(pred, split)
			sec := st.SimSeconds
			row := Table5Row{
				Dataset: name, System: c.Score, ThrGamma: c.Thr, KLocal: c.KLocal,
				Recall: rec, Seconds: sec,
			}
			if baseRecall > 0 {
				row.Gain = rec / baseRecall
			}
			if sec > 0 {
				row.Speedup = baseSeconds / sec
			}
			t5.Rows = append(t5.Rows, row)
			opts.logf("table5: %s %s thr=%s klocal=%s recall=%.3f (%.1fx) sim=%.2fs (%.1fx)",
				name, c.Score, inf(c.Thr), inf(c.KLocal), rec, row.Gain, sec, row.Speedup)
		}
	}
	return t5, nil
}

// Fprint renders the table in the paper's layout (datasets as column
// groups, configurations as rows).
func (t *Table5) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Table 5: SNAPLE vs BASELINE on %s (gains/speedups in brackets)\n", t.Deployment)
	fmt.Fprintf(w, "%-34s", "score(u,z)")
	for _, d := range t.Datasets {
		fmt.Fprintf(w, " | %-22s", d)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-34s", "")
	for range t.Datasets {
		fmt.Fprintf(w, " | %-10s %-11s", "recall", "time(s)")
	}
	fmt.Fprintln(w)

	byKey := make(map[string]Table5Row, len(t.Rows))
	for _, r := range t.Rows {
		byKey[r.Dataset+"/"+r.System+"/"+inf(r.ThrGamma)+"/"+inf(r.KLocal)] = r
	}
	emit := func(label, system string, thr, klocal int) {
		fmt.Fprintf(w, "%-34s", label)
		for _, d := range t.Datasets {
			r, ok := byKey[d+"/"+system+"/"+inf(thr)+"/"+inf(klocal)]
			if !ok {
				fmt.Fprintf(w, " | %-22s", "-")
				continue
			}
			if system == "BASELINE" {
				fmt.Fprintf(w, " | %-10.2f %-11.1f", r.Recall, r.Seconds)
			} else {
				fmt.Fprintf(w, " | %4.2f (%3.1f) %6.1f (%5.1f)", r.Recall, r.Gain, r.Seconds, r.Speedup)
			}
		}
		fmt.Fprintln(w)
	}
	emit("BASELINE", "BASELINE", 0, 0)
	for _, c := range Table5Configs() {
		label := fmt.Sprintf("%s thr=%s klocal=%s", c.Score, inf(c.Thr), inf(c.KLocal))
		emit(label, c.Score, c.Thr, c.KLocal)
	}
}

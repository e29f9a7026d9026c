// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 5) at a reduced dataset scale, plus micro-benchmarks of the
// engine primitives. The EXPERIMENTS.md runs use cmd/snaple-bench at
// scale 1.0; these benches keep `go test -bench=.` tractable on a laptop.
//
// Custom metrics: recall (quality), simsec (simulated cluster seconds),
// crossMB (cross-node traffic). Benchmark wall time measures the host cost
// of the whole experiment.
package snaple

import (
	"fmt"
	"testing"

	"snaple/internal/eval"
)

// benchOpts shrinks datasets; seeds stay fixed for comparability.
func benchOpts(scale float64) eval.Options {
	return eval.Options{Scale: scale, Seed: 42}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t5, err := eval.RunTable5(benchOpts(0.2))
		if err != nil {
			b.Fatal(err)
		}
		// Report the headline cells: baseline vs best SNAPLE recall on
		// livejournal.
		var base, best, bestSpeedup float64
		for _, r := range t5.Rows {
			if r.Dataset != "livejournal" {
				continue
			}
			if r.System == "BASELINE" {
				base = r.Recall
			} else if r.Recall > best {
				best = r.Recall
			}
			if r.Speedup > bestSpeedup {
				bestSpeedup = r.Speedup
			}
		}
		b.ReportMetric(base, "recall-baseline")
		b.ReportMetric(best, "recall-snaple")
		b.ReportMetric(bestSpeedup, "best-speedup")
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := eval.RunFigure5(benchOpts(0.15))
		if err != nil {
			b.Fatal(err)
		}
		// Scaling headline: time on the largest graph at min vs max cores.
		var t64, t256 float64
		for _, p := range f.Points {
			if p.Dataset == "twitter-rv" && p.KLocal == 40 && p.NodeType == "type-I" {
				switch p.Cores {
				case 64:
					t64 = p.Seconds
				case 256:
					t256 = p.Seconds
				}
			}
		}
		b.ReportMetric(t64, "twitter-simsec-64cores")
		b.ReportMetric(t256, "twitter-simsec-256cores")
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := eval.RunFigure6(benchOpts(0.15))
		if err != nil {
			b.Fatal(err)
		}
		var maxImprove float64
		for _, r := range f.Rows {
			if r.ImprovementPct > maxImprove {
				maxImprove = r.ImprovementPct
			}
		}
		b.ReportMetric(maxImprove, "max-recall-improve-pct")
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := eval.RunFigure7(benchOpts(0.15))
		if err != nil {
			b.Fatal(err)
		}
		// Γmax advantage over Γmin at klocal=5, averaged over scores.
		var max5, min5 float64
		for _, r := range f.Rows {
			if r.KLocal != 5 {
				continue
			}
			switch r.Policy {
			case "max":
				max5 += r.Recall
			case "min":
				min5 += r.Recall
			}
		}
		b.ReportMetric(max5/3, "recall-gmax-k5")
		b.ReportMetric(min5/3, "recall-gmin-k5")
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := eval.RunFigure8(benchOpts(0.1))
		if err != nil {
			b.Fatal(err)
		}
		if best, ok := f.BestRecall("livejournal"); ok {
			b.ReportMetric(best.Recall, "best-recall-lj")
			b.ReportMetric(float64(best.KLocal), "best-klocal-lj")
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := eval.RunFigure9(benchOpts(0.15))
		if err != nil {
			b.Fatal(err)
		}
		var rec5, rec20 float64
		for _, r := range f.Rows {
			if r.Dataset == "livejournal" && r.Score == "linearSum" {
				switch r.K {
				case 5:
					rec5 = r.Recall
				case 20:
					rec20 = r.Recall
				}
			}
		}
		b.ReportMetric(rec5, "recall-k5")
		b.ReportMetric(rec20, "recall-k20")
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := eval.RunFigure10(benchOpts(0.15))
		if err != nil {
			b.Fatal(err)
		}
		var rem1, rem5 float64
		for _, r := range f.Rows {
			if r.Dataset == "livejournal" && r.Score == "linearSum" {
				switch r.Removed {
				case 1:
					rem1 = r.Recall
				case 5:
					rem5 = r.Recall
				}
			}
		}
		b.ReportMetric(rem1, "recall-removed1")
		b.ReportMetric(rem5, "recall-removed5")
	}
}

func BenchmarkFigure11AndTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f11, err := eval.RunFigure11(benchOpts(0.15))
		if err != nil {
			b.Fatal(err)
		}
		t6, err := eval.RunTable6(benchOpts(0.15), f11)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range t6.Rows {
			if r.Dataset == "livejournal" {
				b.ReportMetric(r.Speedup, "snaple-speedup-lj")
				b.ReportMetric(r.SnapleRecall, "snaple-recall-lj")
				b.ReportMetric(r.CassovaryRecall, "cassovary-recall-lj")
			}
		}
	}
}

func BenchmarkExhaustion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ex, err := eval.RunExhaustion(benchOpts(0.5))
		if err != nil {
			b.Fatal(err)
		}
		baselineFailures, snapleFailures := 0, 0
		for _, r := range ex.Rows {
			if !r.Completed {
				if r.System == "BASELINE" {
					baselineFailures++
				} else {
					snapleFailures++
				}
			}
		}
		b.ReportMetric(float64(baselineFailures), "baseline-failures")
		b.ReportMetric(float64(snapleFailures), "snaple-failures")
	}
}

// ---- micro-benchmarks of the moving parts ----

func BenchmarkSnapleSerial(b *testing.B) {
	g, err := Dataset("livejournal", 0.2, 42)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Score: "linearSum", KLocal: 20, ThrGamma: 200, Seed: 42, Engine: "serial"}
	b.ReportMetric(float64(g.NumEdges()), "edges")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Predict(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictLocal tracks the parallel shared-memory backend's speedup
// trajectory over the serial reference (BenchmarkSnapleSerial) on the same
// graph and configuration. workers=1 isolates the backend's constant
// overheads; higher counts measure scaling.
func BenchmarkPredictLocal(b *testing.B) {
	g, err := Dataset("livejournal", 0.2, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := Options{
				Score: "linearSum", KLocal: 20, ThrGamma: 200, Seed: 42,
				Engine: "local", Workers: workers,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Predict(g, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredictFor tracks the serving shape: a query-scoped run for a
// fixed 200-vertex source set on the same graph and configuration as
// BenchmarkPredictLocal — the per-tick cost of cmd/snaple-serve's
// micro-batches. Compare against workers=1 of PredictLocal to see the
// frontier restriction's work reduction.
func BenchmarkPredictFor(b *testing.B) {
	g, err := Dataset("livejournal", 0.2, 42)
	if err != nil {
		b.Fatal(err)
	}
	sources := make([]VertexID, 200)
	for i := range sources {
		sources[i] = VertexID((i * 2654435761) % g.NumVertices())
	}
	opts := Options{
		Score: "linearSum", KLocal: 20, ThrGamma: 200, Seed: 42,
		Engine: "local", Workers: 1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PredictFor(g, sources, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapleDistributed(b *testing.B) {
	g, err := Dataset("livejournal", 0.2, 42)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Score: "linearSum", KLocal: 20, ThrGamma: 200, Seed: 42,
		Engine: "sim", Nodes: 4, NodeType: "type-II"}
	b.ReportAllocs()
	b.ResetTimer()
	var last EngineStats
	for i := 0; i < b.N; i++ {
		_, st, err := PredictStats(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = st
	}
	b.ReportMetric(last.SimSeconds, "simsec")
	b.ReportMetric(float64(last.CrossBytes)/(1<<20), "crossMB")
}

func BenchmarkBaselineDistributed(b *testing.B) {
	g, err := Dataset("livejournal", 0.2, 42)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Nodes: 4, NodeType: "type-II", Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	var last EngineStats
	for i := 0; i < b.N; i++ {
		_, st, err := PredictBaseline(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = st
	}
	b.ReportMetric(last.SimSeconds, "simsec")
	b.ReportMetric(float64(last.CrossBytes)/(1<<20), "crossMB")
}

func BenchmarkWalkEngine(b *testing.B) {
	g, err := Dataset("livejournal", 0.2, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PredictWalks(g, 10, 3, 5, 42); err != nil {
			b.Fatal(err)
		}
	}
}

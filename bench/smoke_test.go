package main

import (
	"context"
	"os"
	"regexp"
	"testing"
)

// The test binary doubles as the batch-full child, like the harness binary.
func TestMain(m *testing.M) {
	if path := os.Getenv(batchChildEnv); path != "" {
		os.Exit(batchChild(path))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload for a second on a 2 000-vertex graph,
// untraced and traced, and holds the harness to BENCHMARK.json: every
// workload and metric named there is emitted with the unit written there,
// nothing else is, and no answer was wrong.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the programs under test")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildPrograms(root)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSuite(root, bin, 1, size{vertices: 2000, edges: 20_000})
	defer s.close()
	if err != nil {
		t.Fatal(err)
	}

	if len(sp.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness runs %v", len(sp.Workloads), workloadNames)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(t *testing.T, rep *report, want []specMetric) {
		t.Helper()
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d, notes %v", rep.Correct, rep.Attempted, rep.Failed, rep.notes)
		}
		if len(rep.Metrics) != len(want) {
			t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(rep.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := rep.Metrics[m.Name]
			switch {
			case !nameRE.MatchString(m.Name):
				t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
			case !ok:
				t.Errorf("metric %s is not emitted", m.Name)
			case got.Unit != m.Unit:
				t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			case got.Value != got.Value || got.Value < 0:
				t.Errorf("metric %s = %v", m.Name, got.Value)
			}
		}
	}
	ctx := context.Background()
	outDir := t.TempDir()
	for _, w := range sp.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if !nameRE.MatchString(w.Name) {
				t.Errorf("workload name %q is outside the contract's alphabet", w.Name)
			}
			rep, err := s.untraced(ctx, w.Name, 1)
			if err != nil {
				t.Fatal(err)
			}
			check(t, rep, sp.EndToEnd)
			for _, m := range sp.EndToEnd {
				if rep.Metrics[m.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", m.Name)
				}
			}
			rep, err = s.traced(ctx, w.Name, 1, outDir)
			if err != nil {
				t.Fatal(err)
			}
			check(t, rep, sp.PerLayer)
			f, err := os.Open(outDir + "/trace-" + w.Name + ".jsonl")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			spans, err := readSpans(f)
			if err != nil || len(spans) == 0 {
				t.Errorf("trace file: %d spans, err %v", len(spans), err)
			}
		})
	}
	if _, err := os.Stat(outDir + "/layers.json"); err != nil {
		t.Error(err)
	}
}

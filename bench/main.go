// Command bench is the repository's benchmark: it generates its inputs
// from a seed, runs four workloads against the programs under test
// (snaple-serve, snaple-worker, the snaple library) as separate processes,
// verifies every answer against a Serial oracle, and prints every metric by
// name. See README.md in this directory and BENCHMARK.json at the root.
//
//	bash bench/run.sh --workload serve-cold --seed 1 --seconds 20 --trace 0
//	cd bench && go run . -workload all -seed 1            # every workload
//	cd bench && go run . -workload serve-live -trace 1    # spans + per-layer probes
//	cd bench && go run . -repeat                          # do two runs of the same code agree?
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
)

func main() {
	if path := os.Getenv(batchChildEnv); path != "" {
		os.Exit(batchChild(path))
	}
	var (
		workloadF = flag.String("workload", "all", "batch-full | serve-cold | serve-live | fleet-scoped | all")
		seed      = flag.Uint64("seed", 1, "input seed: graph, id permutation, request and mutation schedules")
		seconds   = flag.Float64("seconds", 20, "measured seconds per workload")
		trace     = flag.Int("trace", 0, "1 = repeat each workload with client spans on, run the per-layer probes, write out/trace-<workload>.jsonl and out/layers.json, and print the per-layer metrics")
		repeat    = flag.Bool("repeat", false, "run the untraced suite twice on -seed and once on -seed+1, hold the same-seed pair to every end-to-end bound in BENCHMARK.json, write out/repeat.json")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *workloadF, *seed, *seconds, *trace != 0, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, seed uint64, seconds float64, trace, repeat bool) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	names, err := selectWorkloads(name)
	if err != nil {
		return err
	}
	bin, err := buildPrograms(root)
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "bench", "out")
	if repeat {
		return runRepeat(ctx, root, bin, outDir, names, seed, seconds)
	}
	s, err := newSuite(root, bin, seed, fullSize)
	defer s.close()
	if err != nil {
		return err
	}
	ok := true
	for _, n := range names {
		var rep *report
		if trace {
			rep, err = s.traced(ctx, n, seconds, outDir)
		} else {
			rep, err = s.untraced(ctx, n, seconds)
		}
		if err != nil {
			return err
		}
		rep.print(os.Stdout)
		ok = ok && rep.Correct
	}
	if !ok {
		return fmt.Errorf("a workload gave wrong or failed answers")
	}
	return nil
}

var workloadNames = []string{"batch-full", "serve-cold", "serve-live", "fleet-scoped"}

func selectWorkloads(name string) ([]string, error) {
	if name == "all" {
		return workloadNames, nil
	}
	if slices.Contains(workloadNames, name) {
		return []string{name}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v, all)", name, workloadNames)
}

// suite is one invocation: its inputs, the built programs under test, and
// the processes it has running.
type suite struct {
	root string
	bin  string // directory of the built programs under test
	in   *input
	ps   *procSet
}

// newSuite generates the inputs. Call close on the result even on error.
func newSuite(root, bin string, seed uint64, sz size) (*suite, error) {
	s := &suite{root: root, bin: bin, ps: &procSet{}}
	parent := filepath.Join(root, buildDirName)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return s, err
	}
	var err error
	s.in, err = generate(parent, seed, sz)
	return s, err
}

// close kills whatever is still running and removes the generated files.
func (s *suite) close() {
	s.ps.killAll()
	if s.in != nil {
		os.RemoveAll(s.in.dir)
	}
}

func (s *suite) runOne(ctx context.Context, name string, seconds float64, tr *tracer) (*result, error) {
	if name == "batch-full" {
		return s.runBatchFull(ctx, seconds, tr)
	}
	for _, w := range workloads {
		if w.name == name {
			return s.runWorkload(ctx, w, seconds, tr)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// report is what one run prints: human-readable metric lines, then the
// one-line JSON object the driver reads.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload string
	notes    []string
}

func newReport(res *result, metrics map[string]metric) *report {
	rep := &report{
		Correct: res.failed == 0 && res.attempted > 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: metrics, workload: res.workload, notes: res.notes,
	}
	if res.firstErr != nil {
		rep.notes = append(rep.notes, "first failure: "+res.firstErr.Error())
	}
	return rep
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d, fail_ratio %g\n", r.workload, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	for _, name := range slices.Sorted(maps.Keys(r.Metrics)) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-40s %16.6g %-6s n=%d\n", name, m.Value, m.Unit, m.n)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Fprintf(w, "%s\n", line)
}

func (s *suite) untraced(ctx context.Context, name string, seconds float64) (*report, error) {
	res, err := s.runOne(ctx, name, seconds, nil)
	if err != nil {
		return nil, err
	}
	return newReport(res, res.e2e), nil
}

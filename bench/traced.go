package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
)

// layersEntry is one workload's part of out/layers.json.
type layersEntry struct {
	Seed    uint64  `json:"seed"`
	Seconds float64 `json:"seconds"`
	// Metrics are the per-layer metrics the traced invocation printed.
	Metrics map[string]metric `json:"metrics"`
	// Spans sums the trace by span name: how many, their total time, and
	// their self time (duration minus what their child spans cover).
	Spans map[string]layerTime `json:"spans"`
	// Overhead is, per end-to-end metric, the untraced run, the traced run
	// of the same invocation, and traced/untraced - 1.
	Overhead map[string]overhead `json:"tracing_overhead"`
}

type overhead struct {
	Untraced float64 `json:"untraced"`
	Traced   float64 `json:"traced"`
	Ratio    float64 `json:"ratio"`
	Unit     string  `json:"unit"`
}

// traced is the -trace run of one workload: the workload untraced, then
// again with client spans on (the difference is the tracing overhead), then
// the per-layer probes. It writes out/trace-<workload>.jsonl, merges the
// workload's entry into out/layers.json, and reports the per-layer metrics.
func (s *suite) traced(ctx context.Context, name string, seconds float64, outDir string) (*report, error) {
	sp, err := loadSpec(s.root)
	if err != nil {
		return nil, err
	}
	plain, err := s.runOne(ctx, name, seconds, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	res, err := s.runOne(ctx, name, seconds, tr)
	if err != nil {
		return nil, err
	}
	probed, err := runProbes(s.in, tr)
	if err != nil {
		return nil, err
	}

	layer := make(map[string]metric, len(sp.PerLayer))
	for _, m := range sp.PerLayer {
		layer[m.Name] = metric{0, m.Unit, 0}
	}
	for _, src := range []map[string]metric{probed, res.layer} {
		for k, m := range src {
			if _, ok := layer[k]; !ok {
				return nil, fmt.Errorf("per-layer metric %s is not in BENCHMARK.json", k)
			}
			layer[k] = m
		}
	}
	res.attempted += plain.attempted
	res.failed += plain.failed
	if res.firstErr == nil {
		res.firstErr = plain.firstErr
	}
	res.notes = append(plain.notes, res.notes...)
	rep := newReport(res, layer)

	spans := tr.snapshot()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(outDir, "trace-"+name+".jsonl")
	if err := writeFile(tracePath, func(f *os.File) error { return writeSpans(f, spans) }); err != nil {
		return nil, err
	}
	entry := layersEntry{
		Seed: s.in.seed, Seconds: seconds, Metrics: rep.Metrics,
		Spans: layerTimes(spans), Overhead: map[string]overhead{},
	}
	for _, k := range slices.Sorted(maps.Keys(plain.e2e)) {
		m, t := plain.e2e[k], res.e2e[k]
		oh := overhead{m.Value, t.Value, t.Value/m.Value - 1, m.Unit}
		entry.Overhead[k] = oh
		rep.notes = append(rep.notes, fmt.Sprintf("tracing overhead %-12s untraced %.6g, traced %.6g %s (%+.1f%%)", k, oh.Untraced, oh.Traced, oh.Unit, oh.Ratio*100))
	}
	if err := mergeLayers(filepath.Join(outDir, "layers.json"), name, entry); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("wrote %s (%d spans) and layers.json", tracePath, len(spans)))
	return rep, nil
}

// mergeLayers replaces one workload's entry in layers.json, so traced runs
// of single workloads add up to one file.
func mergeLayers(path, workload string, entry layersEntry) error {
	all := map[string]layersEntry{}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	all[workload] = entry
	data, err = json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

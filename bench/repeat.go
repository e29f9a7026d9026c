package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// repeatRow is one (workload, end-to-end metric) pair of out/repeat.json:
// the same code measured twice on one seed and once on the next.
type repeatRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	NextSeed float64 `json:"next_seed"`
	// SecondDiff and NextSeedDiff are |x - first| / first.
	SecondDiff   float64 `json:"second_diff"`
	NextSeedDiff float64 `json:"next_seed_diff"`
	OK           bool    `json:"ok"`
}

// runRepeat answers whether the benchmark can tell two commits apart at
// all: two runs of the same code on the same inputs must agree within the
// bounds BENCHMARK.json holds a later change to. It runs the untraced suite
// twice on seed and once on seed+1, writes out/repeat.json, and fails on a
// same-seed disagreement or a wrong answer. The seed+1 column shows how
// much of a difference is the inputs' doing (on serve-live the few hottest
// ids decide the hit ratio); it is flagged but does not fail the run.
func runRepeat(ctx context.Context, root, bin, outDir string, names []string, seed uint64, seconds float64) error {
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	var sets [3]map[string]*report
	for i, sd := range []uint64{seed, seed, seed + 1} {
		sets[i] = map[string]*report{}
		s, err := newSuite(root, bin, sd, fullSize)
		if err == nil {
			for _, n := range names {
				var rep *report
				if rep, err = s.untraced(ctx, n, seconds); err != nil {
					break
				}
				rep.print(os.Stdout)
				sets[i][n] = rep
			}
		}
		s.close()
		if err != nil {
			return err
		}
	}
	ok := true
	var rows []repeatRow
	for _, n := range names {
		a, b, c := sets[0][n], sets[1][n], sets[2][n]
		ok = ok && a.Correct && b.Correct && c.Correct
		for _, m := range sp.EndToEnd {
			first := a.Metrics[m.Name].Value
			row := repeatRow{
				Workload: n, Metric: m.Name, Unit: m.Unit, Bound: m.Bound,
				First: first, Second: b.Metrics[m.Name].Value, NextSeed: c.Metrics[m.Name].Value,
			}
			row.SecondDiff = math.Abs(row.Second-first) / first
			row.NextSeedDiff = math.Abs(row.NextSeed-first) / first
			row.OK = row.SecondDiff <= m.Bound
			ok = ok && row.OK
			rows = append(rows, row)
			word := "ok"
			switch {
			case !row.OK:
				word = "DISAGREE"
			case row.NextSeedDiff > m.Bound:
				word = "ok (seed+1 differs)"
			}
			fmt.Printf("%-13s %-12s first %12.6g  second %12.6g (%5.1f%%)  seed+1 %12.6g (%5.1f%%)  bound %4.0f%%  %s\n",
				n, m.Name, first, row.Second, row.SecondDiff*100, row.NextSeed, row.NextSeedDiff*100, m.Bound*100, word)
		}
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "repeat.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("repeat: two runs on the same seed disagree beyond a bound, or an answer was wrong")
	}
	return nil
}

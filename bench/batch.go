package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"snaple"
)

// batchChildEnv, when set, turns this binary (or the test binary) into the
// batch-full program under test: it names the snapshot to open. A separate
// process keeps the harness's own generation and oracle out of the measured
// peak RSS, and makes set-up (spawn -> graph open) a cold start like the
// servers'.
const batchChildEnv = "SNAPLE_BENCH_BATCH_CHILD"

// batchRun is one line of the child's protocol: a full PredictStats pass.
type batchRun struct {
	WallNs     int64   `json:"wall_ns"`
	Hash       uint64  `json:"hash"` // foldRows over all predictions
	AllocBytes int64   `json:"alloc_bytes"`
	EdgesPerS  float64 `json:"edges_per_s"`
	Err        string  `json:"err,omitempty"`
}

// batchChild opens the graph once, announces "ready", then runs one full
// prediction per "run" line on stdin until EOF.
func batchChild(path string) int {
	g, _, err := snaple.OpenGraphFile(path, snaple.GraphReadOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println("ready")
	opts := snaple.Options{
		Score: cfgScore, Alpha: cfgAlpha, K: cfgK, KLocal: cfgKLocal, ThrGamma: cfgThr,
		Policy: cfgPolicy, Paths: cfgPaths, Seed: cfgSeed, Engine: "local",
	}
	out := json.NewEncoder(os.Stdout)
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		var run batchRun
		preds, st, err := snaple.PredictStats(g, opts)
		if err != nil {
			run.Err = err.Error()
		} else {
			run = batchRun{
				WallNs: int64(st.WallSeconds * 1e9), Hash: foldRows(preds, cfgK),
				AllocBytes: st.AllocBytes, EdgesPerS: st.EdgesPerSec,
			}
		}
		if err := out.Encode(run); err != nil {
			return 1
		}
	}
	return 0
}

const (
	batchColdStarts = 15
	// batchInstances children carry passes, not measuredInstances: each
	// costs an untimed warm-up pass (~1.5 s of a 20 s run), and a pass
	// varies more from one to the next than children do from each other.
	batchInstances = 2
)

// runBatchFull is the paper's own shape: one caller, full passes of
// engine "local" over all of G back to back (closed loop, 1 client), on
// batchInstances children in turn. Each child's first pass is the
// untimed warm-up that faults the mapping in.
func (h *suite) runBatchFull(ctx context.Context, seconds float64, tr *tracer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	want := foldHashes(h.in.oracleK)
	res := &result{workload: "batch-full", e2e: map[string]metric{}, layer: map[string]metric{}}
	var setups, walls, edgesPS, allocMB, rssMB []float64
	for i := range batchColdStarts {
		start := time.Now()
		child, err := h.ps.spawn(self, "ready", []string{batchChildEnv + "=" + h.in.sgr})
		if err != nil {
			return nil, fmt.Errorf("batch-full: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if !takesLoad(i, batchColdStarts, batchInstances) {
			child.kill()
			continue
		}

		var measureStart time.Time
		for pass := 0; ctx.Err() == nil; pass++ {
			if pass == 1 {
				measureStart = time.Now()
			}
			if pass >= 2 && time.Since(measureStart).Seconds() >= seconds/batchInstances {
				break
			}
			sendAt := time.Now()
			_, err := fmt.Fprintln(child.stdin, "run")
			var line []byte
			if err == nil {
				line, err = child.lines.ReadBytes('\n')
			}
			recvAt := time.Now()
			var run batchRun
			if err == nil {
				err = json.Unmarshal(line, &run)
			}
			if err != nil {
				return nil, fmt.Errorf("batch-full: child: %w (said %q)\n%s", err, line, child.stderr.String())
			}
			if pass == 0 {
				continue
			}
			res.attempted++
			switch {
			case run.Err != "":
				res.failed++
				res.firstErr = fmt.Errorf("batch-full: %s", run.Err)
			case run.Hash != want:
				res.failed++
				res.firstErr = fmt.Errorf("batch-full: a pass differs from the Serial oracle")
			default:
				walls = append(walls, ms(recvAt.Sub(sendAt)))
				edgesPS = append(edgesPS, run.EdgesPerS)
				allocMB = append(allocMB, float64(run.AllocBytes)/(1<<20))
			}
			if tr != nil {
				req := int64(res.attempted)
				predictEnd := sendAt.Add(time.Duration(run.WallNs))
				parent := tr.add("request", sendAt, recvAt, 0, req, nil)
				tr.add("engine.predict", sendAt, predictEnd, parent, req, map[string]int64{"alloc_bytes": run.AllocBytes})
				tr.add("verify", predictEnd, recvAt, parent, req, nil)
			}
		}
		mb, err := child.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rssMB = append(rssMB, mb)
		child.kill()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("batch-full: no pass succeeded: %w", res.firstErr)
	}
	// A dozen passes carry no percentile above the median (the
	// ten-samples-beyond rule), so on this workload tail_ms repeats p50_ms;
	// and passes per second is taken at the median pass, not as count over
	// elapsed: on a shared sandbox one pass in ten takes twice as long, and
	// the mean follows those.
	p50 := quantile(walls, 0.5)
	tailV, _ := tail(walls, 0.99)
	res.e2e["setup_s"] = metric{quantile(setups, 0.5), "s", len(setups)}
	res.e2e["p50_ms"] = metric{p50, "ms", len(walls)}
	res.e2e["tail_ms"] = metric{tailV, "ms", len(walls)}
	res.e2e["ops_per_s"] = metric{1000 / p50, "1/s", len(walls)}
	res.e2e["peak_rss_mb"] = metric{quantile(rssMB, 0.5), "MB", len(rssMB)}
	res.layer["engine.batch_edges_per_s"] = metric{quantile(edgesPS, 0.5), "1/s", len(edgesPS)}
	res.layer["engine.batch_alloc_mb"] = metric{quantile(allocMB, 0.5), "MB", len(allocMB)}
	return res, nil
}

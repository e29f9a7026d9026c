package eval

import (
	"fmt"
)

// PerfReport is the machine-readable performance record written by
// `snaple-bench -exp perf` and gated in CI by cmd/benchcheck against the
// committed BENCH_baseline.json: one row per perf-tracked backend measured
// on the same generated graph. The schema lives here so the writer and the
// gate cannot drift apart.
type PerfReport struct {
	Dataset  string    `json:"dataset"`
	Scale    float64   `json:"scale"`
	Seed     uint64    `json:"seed"`
	Vertices int       `json:"vertices"`
	Edges    int       `json:"edges"`
	Rows     []PerfRow `json:"rows"`
}

// PerfRow is one backend's measurements. CrossBytes/CrossMsgs are real wire
// traffic (dist backend only; zero for shared-memory backends). The ingest
// rows ("ingest-text", "ingest-sgr") measure graph loading rather than
// prediction: for them MBPerSec is input bytes consumed per second and
// PeakBytes the sampled peak live heap during the load — the metric that
// catches an O(E) ingest intermediate sneaking back in. The "query-latency"
// row measures repeated query-scoped predictions (the snaple-serve shape):
// P50Ms/P99Ms are per-query latency percentiles, WallSeconds the mean
// query, and EdgesPerSec is 0 (a scoped query deliberately avoids touching
// every edge).
type PerfRow struct {
	Engine       string  `json:"engine"`
	Workers      int     `json:"workers"`
	WallSeconds  float64 `json:"wall_seconds"`
	EdgesPerSec  float64 `json:"edges_per_sec"`
	AllocBytes   int64   `json:"alloc_bytes"`
	AllocObjects int64   `json:"alloc_objects"`
	CrossBytes   int64   `json:"cross_bytes,omitempty"`
	CrossMsgs    int64   `json:"cross_msgs,omitempty"`
	MBPerSec     float64 `json:"mb_per_sec,omitempty"`
	PeakBytes    int64   `json:"peak_bytes,omitempty"`
	P50Ms        float64 `json:"p50_ms,omitempty"`
	P99Ms        float64 `json:"p99_ms,omitempty"`
	// RSSBytes is the process's OS-level peak resident set (VmHWM) after the
	// row's work, where the scale experiment records it. Unlike the
	// allocator metrics it sees mmap'd pages and is monotone across a run,
	// so only the run's final row carries a meaningful delta. Zero on
	// platforms without a probe.
	RSSBytes int64 `json:"rss_bytes,omitempty"`
}

// Row returns the report's row for an engine.
func (r PerfReport) Row(engine string) (PerfRow, bool) {
	for _, row := range r.Rows {
		if row.Engine == engine {
			return row, true
		}
	}
	return PerfRow{}, false
}

// ComparePerf diffs current against baseline with a relative tolerance
// (0.35 = ±35%) and returns one message per hard regression; an empty slice
// means the gate passes. The tolerance is deliberately generous: CI runners
// are noisy and heterogeneous, so the gate is meant to catch step-function
// regressions (an accidental O(V) allocation, a 2x throughput cliff), not
// single-digit drift. Checked per engine row:
//
//   - edges_per_sec must not drop below (1−tol) × baseline;
//   - alloc_bytes / alloc_objects must not exceed (1+tol) × baseline
//     (these are near-deterministic per code version, so the same tolerance
//     is comfortably wide);
//   - cross_bytes must not exceed (1+min(tol, 10%)) × baseline when the
//     baseline measured any: wire traffic is measured on real sockets but is
//     near-deterministic per code version (same graph, same partitioning
//     seed), so unlike the timing metrics it gets no noise allowance — the
//     tight ceiling pins the flat-frame protocol's traffic volume and stops
//     it eroding one in-tolerance step at a time;
//   - mb_per_sec must not drop below (1−tol) × baseline when the baseline
//     measured any (ingest rows: parse/load throughput);
//   - peak_bytes must not exceed (1+tol) × baseline when the baseline
//     measured any (ingest rows: an O(E) loading intermediate is exactly
//     the step-function blow-up this gate exists to catch);
//   - p99_ms must not exceed (1+tol) × baseline when the baseline measured
//     any (the query-latency row: a tail-latency regression is a serving
//     regression even when throughput holds);
//   - rss_bytes must not exceed (1+tol) × baseline when the baseline
//     measured any (scale rows: the OS-level peak resident set, which sees
//     the mmap'd pages and loader copies the allocator counters miss).
//
// Improvements never fail. The graphs must be identical (dataset, scale,
// seed, vertex and edge counts) — otherwise the comparison is meaningless
// and that mismatch is itself the failure.
// crossBytesTol caps the cross_bytes tolerance regardless of the caller's
// general tolerance: encoded traffic is a property of the code, not the
// runner, so a ±35% noise allowance would let frame-format bloat through.
const crossBytesTol = 0.10

func ComparePerf(baseline, current PerfReport, tol float64) []string {
	var failures []string
	failf := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	if baseline.Dataset != current.Dataset || baseline.Scale != current.Scale ||
		baseline.Seed != current.Seed ||
		baseline.Vertices != current.Vertices || baseline.Edges != current.Edges {
		failf("reports measure different graphs: baseline %s scale=%v seed=%d V=%d E=%d, current %s scale=%v seed=%d V=%d E=%d",
			baseline.Dataset, baseline.Scale, baseline.Seed, baseline.Vertices, baseline.Edges,
			current.Dataset, current.Scale, current.Seed, current.Vertices, current.Edges)
		return failures
	}
	for _, base := range baseline.Rows {
		cur, ok := current.Row(base.Engine)
		if !ok {
			failf("%s: row missing from current report", base.Engine)
			continue
		}
		if base.Workers != cur.Workers {
			// Worker count changes per-worker scratch allocation and
			// parallel throughput; comparing across counts reports phantom
			// regressions (e.g. an unpinned -workers resolving to GOMAXPROCS
			// on a bigger runner). CI pins -workers for exactly this reason.
			failf("%s: measured with different worker counts (baseline %d, current %d): pin -workers to the baseline's invocation",
				base.Engine, base.Workers, cur.Workers)
			continue
		}
		if floor := base.EdgesPerSec * (1 - tol); cur.EdgesPerSec < floor {
			failf("%s: throughput regressed: %.0f edges/s < %.0f (baseline %.0f − %d%%)",
				base.Engine, cur.EdgesPerSec, floor, base.EdgesPerSec, int(tol*100))
		}
		if base.MBPerSec > 0 {
			if floor := base.MBPerSec * (1 - tol); cur.MBPerSec < floor {
				failf("%s: ingest throughput regressed: %.1f MB/s < %.1f (baseline %.1f − %d%%)",
					base.Engine, cur.MBPerSec, floor, base.MBPerSec, int(tol*100))
			}
		}
		checkCeil := func(metric string, base64, cur64 int64, tol float64) {
			if base64 <= 0 {
				return
			}
			if ceil := float64(base64) * (1 + tol); float64(cur64) > ceil {
				failf("%s: %s regressed: %d > %.0f (baseline %d + %d%%)",
					base.Engine, metric, cur64, ceil, base64, int(tol*100))
			}
		}
		checkCeil("alloc_bytes", base.AllocBytes, cur.AllocBytes, tol)
		checkCeil("alloc_objects", base.AllocObjects, cur.AllocObjects, tol)
		checkCeil("cross_bytes", base.CrossBytes, cur.CrossBytes, min(tol, crossBytesTol))
		checkCeil("peak_bytes", base.PeakBytes, cur.PeakBytes, tol)
		checkCeil("rss_bytes", base.RSSBytes, cur.RSSBytes, tol)
		if base.P99Ms > 0 {
			if ceil := base.P99Ms * (1 + tol); cur.P99Ms > ceil {
				failf("%s: query p99 regressed: %.2fms > %.2fms (baseline %.2fms + %d%%)",
					base.Engine, cur.P99Ms, ceil, base.P99Ms, int(tol*100))
			}
		}
	}
	return failures
}

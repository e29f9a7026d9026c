// Command snaple-bench regenerates the paper's tables and figures on the
// synthetic dataset analogs.
//
// Usage:
//
//	snaple-bench -exp table5
//	snaple-bench -exp all -scale 0.5 -v
//
// Experiments: table5, fig5, fig6, fig7, fig8, fig9, fig10, fig11, table6,
// exhaustion, perf, scale, all.
//
// The perf experiment additionally writes a machine-readable report
// (default BENCH.json, see -perf-out) with one row per perf-tracked backend
// — the local hot path and the dist TCP engine — covering wall seconds,
// edges/sec, allocation counts and (for dist) measured wire traffic, plus
// rows for the two graph-ingestion paths, the serving query shape, the wire
// codec, and the live-graph mutation path (Live.Apply throughput and the
// compaction fold), so the performance trajectory can be compared across
// commits; CI's benchmark-regression gate diffs it against the committed
// BENCH_baseline.json with cmd/benchcheck. Because of that file side effect
// it only runs when requested explicitly — "all" skips it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"snaple"
	"snaple/internal/core"
	"snaple/internal/eval"
	"snaple/internal/graph"
	"snaple/internal/randx"
	"snaple/internal/wire"
)

// perfOutPath is where the perf experiment writes its JSON report
// (overridden by -perf-out).
var perfOutPath = "BENCH.json"

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (table5|fig5|fig6|fig7|fig8|fig9|fig10|fig11|table6|exhaustion|ablations|perf|scale|all)")
		scale    = flag.Float64("scale", 1.0, "dataset scale multiplier")
		seed     = flag.Uint64("seed", 42, "run seed")
		engine   = flag.String("engine", "sim", "SNAPLE execution backend: "+strings.Join(snaple.EngineNames(), "|")+" (non-sim backends zero the simulated cost columns)")
		workers  = flag.Int("workers", 0, "worker goroutines per backend run (0 = GOMAXPROCS)")
		perfOut  = flag.String("perf-out", perfOutPath, "output path for the perf experiment's machine-readable report")
		scaleE   = flag.Int64("scale-edges", scaleEdges, "edge draws for the scale experiment (10^9 reproduces the title figure; CI smokes 5x10^6)")
		scaleOut = flag.String("scale-out", scaleOutPath, "output path for the scale experiment's machine-readable report")
		verbose  = flag.Bool("v", false, "log per-run progress to stderr")
	)
	flag.Parse()
	perfOutPath = *perfOut
	scaleEdges = *scaleE
	scaleOutPath = *scaleOut

	opts := eval.Options{Scale: *scale, Seed: *seed, Engine: *engine, Workers: *workers}
	if *verbose {
		opts.Log = os.Stderr
	}
	if err := run(*exp, opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "snaple-bench:", err)
		os.Exit(1)
	}
}

type experiment struct {
	id  string
	run func(eval.Options, io.Writer) error
	// explicitOnly experiments have side effects (e.g. writing files) and
	// run only when requested by id — never as part of "all".
	explicitOnly bool
}

func experiments() []experiment {
	return []experiment{
		{id: "table5", run: printed(eval.RunTable5)},
		{id: "fig5", run: printed(eval.RunFigure5)},
		{id: "fig6", run: printed(eval.RunFigure6)},
		{id: "fig7", run: printed(eval.RunFigure7)},
		{id: "fig8", run: printed(eval.RunFigure8)},
		{id: "fig9", run: printed(eval.RunFigure9)},
		{id: "fig10", run: printed(eval.RunFigure10)},
		{id: "fig11+table6", run: func(o eval.Options, w io.Writer) error {
			f, err := eval.RunFigure11(o)
			if err != nil {
				return err
			}
			f.Fprint(w)
			fmt.Fprintln(w)
			t, err := eval.RunTable6(o, f)
			if err != nil {
				return err
			}
			t.Fprint(w)
			return nil
		}},
		{id: "exhaustion", run: printed(eval.RunExhaustion)},
		{id: "supervised", run: printed(eval.RunSupervised)},
		{id: "perf", run: runPerf, explicitOnly: true},
		{id: "scale", run: runScale, explicitOnly: true},
		{id: "ablations", run: func(o eval.Options, w io.Writer) error {
			for i, ab := range []func(eval.Options, io.Writer) error{
				printed(eval.RunAlphaSweep), printed(eval.RunPartitionAblation),
			} {
				if i > 0 {
					fmt.Fprintln(w)
				}
				if err := ab(o, w); err != nil {
					return err
				}
			}
			return nil
		}},
	}
}

// printed adapts an experiment whose result renders itself into a runner.
func printed[R interface{ Fprint(io.Writer) }](runExp func(eval.Options) (R, error)) func(eval.Options, io.Writer) error {
	return func(o eval.Options, w io.Writer) error {
		r, err := runExp(o)
		if err != nil {
			return err
		}
		r.Fprint(w)
		return nil
	}
}

// perfEngines lists the perf-tracked backends: the shared-memory hot path
// and the multi-process TCP engine (served in-process on loopback here, so
// the bench needs no external worker fleet — the wire costs are still real).
var perfEngines = []string{"local", "dist"}

// runPerf benchmarks the perf-tracked backends on the livejournal analog at
// the run scale, measures both graph-ingestion paths (text parse and binary
// snapshot load) on the same graph, and writes the machine-readable report
// to perfOutPath.
func runPerf(o eval.Options, w io.Writer) error {
	const dataset = "livejournal"
	g, err := snaple.Dataset(dataset, o.Scale, o.Seed)
	if err != nil {
		return err
	}
	rep := eval.PerfReport{
		Dataset: dataset, Scale: o.Scale, Seed: o.Seed,
		Vertices: g.NumVertices(), Edges: g.NumEdges(),
	}
	for _, engineName := range perfEngines {
		// The dist row measures the wire compressed — the cross-rack shape
		// whose cross_bytes the baseline pins (the CLI's -wire-compress).
		opts := snaple.Options{
			Score: "linearSum", KLocal: 20, ThrGamma: 200, Seed: o.Seed,
			Engine: engineName, Workers: o.Workers, WireCompress: true,
		}
		// The backends' own allocation deltas come from runtime/metrics
		// (core.ReadHeapCounters), which books small objects a span at a
		// time: over one 30 ms run that lag is larger than the gate's ±35%
		// of ~200 objects. The local row therefore takes the exact MemStats
		// delta around the call (dist keeps its worker-reported sums, which
		// no process-wide delta can reproduce). The first reading builds the
		// runtime's metric table, ~50 objects once per process — not the
		// run's.
		core.ReadHeapCounters()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, st, err := snaple.PredictStats(g, opts)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("%s backend: %w", engineName, err)
		}
		if engineName == "local" {
			st.AllocBytes, st.AllocObjects = int64(m1.TotalAlloc-m0.TotalAlloc), int64(m1.Mallocs-m0.Mallocs)
		}
		rep.Rows = append(rep.Rows, eval.PerfRow{
			Engine: st.Engine, Workers: st.Workers,
			WallSeconds: st.WallSeconds, EdgesPerSec: st.EdgesPerSec,
			AllocBytes: st.AllocBytes, AllocObjects: st.AllocObjects,
			CrossBytes: st.CrossBytes, CrossMsgs: st.CrossMsgs,
		})
		fmt.Fprintf(w, "%s backend on %s (scale %.2f): %.2fs, %.0f edges/s, %.1f MiB / %d objects allocated",
			engineName, dataset, o.Scale, st.WallSeconds, st.EdgesPerSec,
			float64(st.AllocBytes)/(1<<20), st.AllocObjects)
		if st.CrossBytes > 0 {
			fmt.Fprintf(w, ", %.1f MiB / %d msgs on the wire", float64(st.CrossBytes)/(1<<20), st.CrossMsgs)
		}
		fmt.Fprintln(w)
	}
	ingestRows, err := ingestPerf(g, o.Workers, w)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	rep.Rows = append(rep.Rows, ingestRows...)
	queryRow, err := queryPerf("query-latency", g, o.Workers, o.Seed, w)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	rep.Rows = append(rep.Rows, queryRow)
	codecRow, err := codecPerf(w)
	if err != nil {
		return fmt.Errorf("wire-codec: %w", err)
	}
	rep.Rows = append(rep.Rows, codecRow)
	mutRows, err := mutatePerf(g, o.Seed, w)
	if err != nil {
		return fmt.Errorf("mutate: %w", err)
	}
	rep.Rows = append(rep.Rows, mutRows...)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(perfOutPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", perfOutPath)
	return nil
}

// ingestPerf measures the two graph-loading paths on the perf graph: the
// streaming parallel text parser and the binary CSR snapshot. The graph is
// written to a temp dir in both formats, loaded back through the
// auto-detecting reader, and each load reports wall time, edges/s, input
// MB/s, allocation deltas and the sampled peak live heap — the metric that
// would catch an O(E) loading intermediate creeping back in.
func ingestPerf(g *snaple.Graph, workers int, w io.Writer) ([]eval.PerfRow, error) {
	dir, err := os.MkdirTemp("", "snaple-bench-ingest-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	write := func(name string, write func(io.Writer, *snaple.Graph) error) (string, int64, error) {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return "", 0, err
		}
		if err := write(f, g); err != nil {
			f.Close()
			return "", 0, err
		}
		if err := f.Close(); err != nil {
			return "", 0, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return "", 0, err
		}
		return path, fi.Size(), nil
	}
	textPath, textSize, err := write("g.txt", snaple.WriteEdgeList)
	if err != nil {
		return nil, err
	}
	sgrPath, sgrSize, err := write("g.sgr", snaple.WriteSnapshot)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var rows []eval.PerfRow
	for _, tc := range []struct {
		engine string
		path   string
		size   int64
		opts   snaple.GraphReadOptions
	}{
		// PreserveIDs matches the pack workflow for already-dense files and
		// keeps the text row's memory profile map-free and deterministic.
		// The sgr row pins the heap decode path (NoMap) so its alloc columns
		// keep meaning per-edge copy cost; the sgr-map row is the zero-copy
		// default, whose alloc columns pin the O(1)-allocation claim instead.
		{"ingest-text", textPath, textSize, snaple.GraphReadOptions{PreserveIDs: true, Workers: workers}},
		{"ingest-sgr", sgrPath, sgrSize, snaple.GraphReadOptions{NoMap: true}},
		{"ingest-sgr-map", sgrPath, sgrSize, snaple.GraphReadOptions{}},
	} {
		row, got, err := measureIngest(tc.engine, tc.path, tc.size, workers, tc.opts)
		if err != nil {
			return nil, err
		}
		if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
			return nil, fmt.Errorf("%s loaded %s, want %s", tc.engine, got, g)
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%s: %.0f edges/s, %.1f MB/s, peak %.1f MiB live, %.1f MiB / %d objects allocated\n",
			tc.engine, row.EdgesPerSec, row.MBPerSec,
			float64(row.PeakBytes)/(1<<20), float64(row.AllocBytes)/(1<<20), row.AllocObjects)
	}
	return rows, nil
}

// measureIngest profiles one graph-loading path twice over: instrumented
// runs for the memory metrics (allocation deltas and the live-heap peak,
// sampled every millisecond and floored by the post-load pre-GC heap, which
// covers loads faster than the sampler), then repeated loads until enough
// wall time accumulates for a stable best-run throughput — a single load of
// a small bench graph is far too short to gate on. Each memory metric is the
// minimum over a few instrumented runs: a MemStats delta also counts whatever
// the runtime allocates meanwhile (the sampler's ticker, a GC worker), which
// only ever adds — and on a mapped open of ~10 µs and ~1.5 KB that noise is
// as large as the signal.
func measureIngest(engine, path string, size int64, workers int, opts snaple.GraphReadOptions) (eval.PerfRow, *snaple.Graph, error) {
	var g *snaple.Graph
	allocBytes, allocObjects, peakBytes := int64(math.MaxInt64), int64(math.MaxInt64), int64(math.MaxInt64)
	for range 3 {
		runtime.GC()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		peak := m0.HeapAlloc
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					var m runtime.MemStats
					runtime.ReadMemStats(&m)
					peak = max(peak, m.HeapAlloc)
				}
			}
		}()
		var err error
		g, err = snaple.ReadGraphFile(path, opts)
		close(stop)
		<-done
		if err != nil {
			return eval.PerfRow{}, nil, err
		}
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		peak = max(peak, m1.HeapAlloc)
		allocBytes = min(allocBytes, int64(m1.TotalAlloc-m0.TotalAlloc))
		allocObjects = min(allocObjects, int64(m1.Mallocs-m0.Mallocs))
		peakBytes = min(peakBytes, int64(peak-m0.HeapAlloc))
	}

	const (
		minIters = 3
		minTotal = 100 * time.Millisecond
	)
	best := time.Duration(1<<62 - 1)
	var total time.Duration
	for iters := 0; iters < minIters || total < minTotal; iters++ {
		start := time.Now()
		if _, err := snaple.ReadGraphFile(path, opts); err != nil {
			return eval.PerfRow{}, nil, err
		}
		d := time.Since(start)
		best = min(best, d)
		total += d
	}
	wall := best.Seconds()
	return eval.PerfRow{
		Engine: engine, Workers: workers, WallSeconds: wall,
		EdgesPerSec:  float64(g.NumEdges()) / wall,
		MBPerSec:     float64(size) / wall / 1e6,
		AllocBytes:   allocBytes,
		AllocObjects: allocObjects,
		PeakBytes:    peakBytes,
	}, g, nil
}

// queryPerf measures the serving shape on a graph view: repeated
// query-scoped predictions of 200 sources each (a "top-k for these users"
// request, the workload cmd/snaple-serve answers) on the local backend.
// Per-query latencies are collected over several rounds and the best
// round's percentiles reported — the tail of the best round is what the
// code is capable of; worse rounds on a shared runner are scheduler noise,
// which the regression gate must not alert on. The view may be any storage
// representation (heap CSR, mmap'd columns, packed rows): the row name
// keys the gate, so each representation gets its own baseline.
func queryPerf(name string, g snaple.GraphView, workers int, seed uint64, w io.Writer) (eval.PerfRow, error) {
	const (
		sourcesPerQuery = 200
		queriesPerRound = 40
		rounds          = 3
	)
	n := uint64(g.NumVertices())
	opts := snaple.Options{
		Score: "linearSum", KLocal: 20, ThrGamma: 200, Seed: seed,
		Engine: "local", Workers: workers,
	}
	best := eval.PerfRow{Engine: name}
	for round := 0; round < rounds; round++ {
		lats := make([]float64, 0, queriesPerRound)
		var wall float64
		var alloc, objects int64
		for q := 0; q < queriesPerRound; q++ {
			sources := make([]snaple.VertexID, sourcesPerQuery)
			for i := range sources {
				// Deterministic per (seed, query, slot): every run measures
				// the same query stream, so rows are comparable across
				// commits.
				sources[i] = snaple.VertexID(randx.Uint64n(n, seed, uint64(q), uint64(i)))
			}
			opts.Sources = sources
			start := time.Now()
			_, st, err := snaple.PredictStats(g, opts)
			if err != nil {
				return eval.PerfRow{}, err
			}
			d := time.Since(start).Seconds()
			lats = append(lats, d*1000)
			wall += d
			alloc += st.AllocBytes
			objects += st.AllocObjects
			best.Workers = st.Workers
		}
		sort.Float64s(lats)
		p50 := lats[len(lats)/2]
		p99 := lats[(len(lats)-1)*99/100]
		if best.P99Ms == 0 || p99 < best.P99Ms {
			best.P50Ms, best.P99Ms = p50, p99
			best.WallSeconds = wall / queriesPerRound
			best.AllocBytes = alloc / queriesPerRound
			best.AllocObjects = objects / queriesPerRound
		}
	}
	fmt.Fprintf(w, "%s: %d sources/query, p50 %.2fms, p99 %.2fms, %.1f MiB / %d objects allocated per query\n",
		name, sourcesPerQuery, best.P50Ms, best.P99Ms,
		float64(best.AllocBytes)/(1<<20), best.AllocObjects)
	return best, nil
}

// codecConn adapts a byte buffer to the wire transport interface, so the
// codec row measures pure encode+decode with no sockets in the way.
type codecConn struct{ bytes.Buffer }

func (*codecConn) Close() error { return nil }

// codecPerf measures the v3 wire codec in isolation on one superstep's
// representative traffic: a partials batch up and a state-refresh batch
// down. MBPerSec is frame bytes pushed through the codec per second (each
// byte encoded once and decoded once); the allocation columns are the
// steady-state per-iteration deltas — where a codec regression (a dropped
// scratch reuse, per-record boxing creeping back) shows first. CrossBytes
// pins the encoded size of the fixed message mix, which is deterministic per
// code version, so the regression gate's cross_bytes ceiling also guards
// frame-format bloat.
func codecPerf(w io.Writer) (eval.PerfRow, error) {
	const (
		nPartials = 2000
		nStates   = 600
		idSpace   = 50000
	)
	partials := make([]core.DistPartial, nPartials)
	for i := range partials {
		p := core.DistPartial{V: graph.VertexID(i)}
		for j := 0; j < 4; j++ {
			p.Nbrs = append(p.Nbrs, graph.VertexID((i*7+j*13)%idSpace))
			p.Sims = append(p.Sims, core.VertexSim{V: graph.VertexID((i*5 + j*17) % idSpace), Sim: 1 / float64(j+1)})
		}
		for j := 0; j < 6; j++ {
			p.Cands = append(p.Cands, core.PathCand{Z: graph.VertexID((i*11 + j) % idSpace), S: float64(i%17) * 0.125})
		}
		partials[i] = p
	}
	states := make([]wire.VertexState, nStates)
	for i := range states {
		s := wire.VertexState{V: graph.VertexID(i)}
		for j := 0; j < 6; j++ {
			s.Data.Nbrs = append(s.Data.Nbrs, graph.VertexID((i*3+j*7)%idSpace))
			s.Data.Sims = append(s.Data.Sims, core.VertexSim{V: graph.VertexID((i*13 + j) % idSpace), Sim: 1 / float64(j+2)})
		}
		states[i] = s
	}
	msgs := []*wire.Msg{
		{Kind: wire.KindPartials, Step: core.DistCombine, Partials: partials},
		{Kind: wire.KindRefresh, Step: core.DistRelays, States: states, Final: true},
	}
	c := wire.NewConn(&codecConn{})
	iter := func() error {
		for _, m := range msgs {
			if err := c.Send(m); err != nil {
				return err
			}
		}
		for range msgs {
			if _, err := c.Recv(); err != nil {
				return err
			}
		}
		return nil
	}
	// Warm-up puts the connection's reusable buffers at steady-state size and
	// records the deterministic wire footprint of the mix.
	if err := iter(); err != nil {
		return eval.PerfRow{}, err
	}
	bytesPerIter := c.Counters().BytesOut

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := iter(); err != nil {
		return eval.PerfRow{}, err
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	const (
		minIters = 3
		minTotal = 100 * time.Millisecond
	)
	best := time.Duration(1<<62 - 1)
	var total time.Duration
	for iters := 0; iters < minIters || total < minTotal; iters++ {
		start := time.Now()
		if err := iter(); err != nil {
			return eval.PerfRow{}, err
		}
		d := time.Since(start)
		best = min(best, d)
		total += d
	}
	wall := best.Seconds()
	row := eval.PerfRow{
		Engine: "wire-codec", Workers: 1, WallSeconds: wall,
		MBPerSec:     float64(bytesPerIter) / wall / 1e6,
		AllocBytes:   int64(m1.TotalAlloc - m0.TotalAlloc),
		AllocObjects: int64(m1.Mallocs - m0.Mallocs),
		CrossBytes:   bytesPerIter,
		CrossMsgs:    int64(len(msgs)),
	}
	fmt.Fprintf(w, "wire-codec: %.1f MB/s encode+decode, %.1f KiB frames/iter, %.1f KiB / %d objects allocated per iter\n",
		row.MBPerSec, float64(bytesPerIter)/(1<<10),
		float64(row.AllocBytes)/(1<<10), row.AllocObjects)
	return row, nil
}

// mutatePerf measures the live-graph serving path on the perf graph. The
// "mutate" row is Live.Apply throughput over a deterministic stream of edge
// batches — the POST /v1/edges shape: copy-on-write overlay updates with the
// reverse-adjacency mirror maintained, since mutable serving requires it —
// and the "compact" row is the fold of the accumulated overlay back into a
// fresh CSR (Delta.Materialize, the POST /v1/compact shape). EdgesPerSec is
// mutation edges applied (resp. edges folded) per second; the allocation
// columns are one full apply stream's (resp. one fold's) deltas — where a
// dropped row-sharing optimisation or an O(V) copy per batch would show
// first. Runs last: EnsureInEdges grows the base in place.
func mutatePerf(g *snaple.Graph, seed uint64, w io.Writer) ([]eval.PerfRow, error) {
	const (
		batches         = 32
		addsPerBatch    = 192
		removesPerBatch = 64
	)
	g.EnsureInEdges()
	n := uint64(g.NumVertices())
	adds := make([][]graph.Edge, batches)
	removes := make([][]graph.Edge, batches)
	mutEdges := 0
	for b := 0; b < batches; b++ {
		for i := 0; i < addsPerBatch; i++ {
			// Deterministic per (seed, batch, slot): every run applies the
			// same mutation stream, so rows are comparable across commits.
			adds[b] = append(adds[b], graph.Edge{
				Src: graph.VertexID(randx.Uint64n(n, seed, uint64(b), uint64(i), 0)),
				Dst: graph.VertexID(randx.Uint64n(n, seed, uint64(b), uint64(i), 1)),
			})
		}
		if b > 0 {
			// Removals target edges the previous batch added, so they always
			// hit a live overlay row rather than no-oping on absent edges.
			removes[b] = adds[b-1][:removesPerBatch]
		}
		mutEdges += len(adds[b]) + len(removes[b])
	}
	stream := func() (*snaple.Delta, error) {
		l := snaple.NewLive(g)
		for b := range adds {
			if _, err := l.Apply(adds[b], removes[b]); err != nil {
				return nil, err
			}
		}
		return l.View(), nil
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, err := stream()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)

	const (
		minIters = 3
		minTotal = 100 * time.Millisecond
	)
	best := time.Duration(1<<62 - 1)
	var total time.Duration
	for iters := 0; iters < minIters || total < minTotal; iters++ {
		start := time.Now()
		if _, err := stream(); err != nil {
			return nil, err
		}
		dur := time.Since(start)
		best = min(best, dur)
		total += dur
	}
	wall := best.Seconds()
	mutateRow := eval.PerfRow{
		Engine: "mutate", Workers: 1, WallSeconds: wall,
		EdgesPerSec:  float64(mutEdges) / wall,
		AllocBytes:   int64(m1.TotalAlloc - m0.TotalAlloc),
		AllocObjects: int64(m1.Mallocs - m0.Mallocs),
	}
	fmt.Fprintf(w, "mutate: %d batches / %d edge mutations per stream, %.0f edges/s applied, %.1f MiB / %d objects allocated\n",
		batches, mutEdges, mutateRow.EdgesPerSec,
		float64(mutateRow.AllocBytes)/(1<<20), mutateRow.AllocObjects)

	runtime.GC()
	runtime.ReadMemStats(&m0)
	csr := d.Materialize()
	runtime.ReadMemStats(&m1)
	if csr.NumEdges() != d.NumEdges() {
		return nil, fmt.Errorf("compaction folded %d edges, overlay has %d", csr.NumEdges(), d.NumEdges())
	}
	best = time.Duration(1<<62 - 1)
	total = 0
	for iters := 0; iters < minIters || total < minTotal; iters++ {
		start := time.Now()
		d.Materialize()
		dur := time.Since(start)
		best = min(best, dur)
		total += dur
	}
	wall = best.Seconds()
	compactRow := eval.PerfRow{
		Engine: "compact", Workers: 1, WallSeconds: wall,
		EdgesPerSec:  float64(csr.NumEdges()) / wall,
		AllocBytes:   int64(m1.TotalAlloc - m0.TotalAlloc),
		AllocObjects: int64(m1.Mallocs - m0.Mallocs),
	}
	fmt.Fprintf(w, "compact: %d overlay rows folded into %d edges, %.0f edges/s, %.1f MiB / %d objects allocated\n",
		d.OverlayRows(), csr.NumEdges(), compactRow.EdgesPerSec,
		float64(compactRow.AllocBytes)/(1<<20), compactRow.AllocObjects)
	return []eval.PerfRow{mutateRow, compactRow}, nil
}

func run(id string, opts eval.Options, w io.Writer) error {
	matched := false
	for _, e := range experiments() {
		if !matches(id, e) {
			continue
		}
		matched = true
		start := time.Now()
		fmt.Fprintf(w, "==> %s (scale=%.2f seed=%d)\n", e.id, opts.Scale, opts.Seed)
		if err := e.run(opts, w); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Fprintf(w, "<== %s done in %.1fs\n\n", e.id, time.Since(start).Seconds())
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}

func matches(requested string, e experiment) bool {
	if e.explicitOnly && requested != e.id {
		return false // side effects (file writes): never part of "all"
	}
	if requested == "all" || requested == e.id {
		return true
	}
	// fig11 and table6 share a runner.
	return e.id == "fig11+table6" && (requested == "fig11" || requested == "table6")
}

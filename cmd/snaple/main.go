// Command snaple runs link prediction on a graph: SNAPLE on one of the
// pluggable execution backends (parallel shared-memory "local", serial
// reference, the simulated cluster "sim", or the real
// multi-process TCP engine "dist"), the naive BASELINE, or the random-walk
// comparator. Graph inputs may be SNAP-style text edge lists or binary CSR
// snapshots (.sgr); the format is auto-detected by magic bytes, and the
// `pack` subcommand converts an edge list into a snapshot once so every
// later run skips parsing entirely.
//
// Usage:
//
//	snaple -dataset livejournal -scale 0.25 -score linearSum -klocal 20 -eval
//	snaple -dataset livejournal -engine local -workers 8 -eval
//	snaple -in graph.txt -score PPR -k 10 -vertex 42
//	snaple -in graph.sgr -engine local -sources 17,42,99 -vertex 42
//	snaple -in graph.sgr -engine local -sources @user-ids.txt
//	snaple pack -in graph.txt -out graph.sgr
//	snaple pack -in old.sgr -out new.sgr -packed
//	snaple -in graph.sgr -engine local -eval
//	snaple -dataset pokec -system walks -walks 100 -depth 3 -eval
//	snaple -dataset gowalla -system baseline -nodes 4 -eval
//	snaple -dataset gowalla -engine dist -spawn 3 -eval
//	snaple -dataset gowalla -engine dist -addrs host1:7777,host2:7777 -eval
//
// Every prediction and deployment flag sets one field of snaple.Options:
// -score -alpha -klocal -thr -policy -seed -engine -workers -addrs -spawn
// -worker-bin -replicas -step-timeout -dial-attempts through the binder
// snaple-serve shares (Options.BindFlags), and -k -nodes -nodetype
// -strategy -budget -wire-compress here.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"snaple"
	"snaple/internal/engine"
	"snaple/internal/graph"
	"snaple/internal/partition"
)

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "pack" {
		if err = runPack(os.Args[2:], os.Stdout); err != nil {
			err = fmt.Errorf("pack: %w", err)
		}
	} else {
		err = run(os.Args[1:])
	}
	switch {
	case errors.Is(err, flag.ErrHelp):
	case err != nil:
		fmt.Fprintln(os.Stderr, "snaple:", err)
		os.Exit(1)
	}
}

// parseSources parses the -sources flag: a comma-separated ID list, or
// "@path" naming a file of whitespace-separated IDs where '#' starts a
// line comment — the shape a batch of user IDs arrives in.
func parseSources(s string) ([]snaple.VertexID, error) {
	if s == "" {
		return nil, nil
	}
	var fields []string
	if strings.HasPrefix(s, "@") {
		data, err := os.ReadFile(s[1:])
		if err != nil {
			return nil, fmt.Errorf("-sources: %w", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if i := strings.IndexByte(line, '#'); i >= 0 {
				line = line[:i]
			}
			fields = append(fields, strings.Fields(line)...)
		}
	} else {
		fields = strings.Split(s, ",")
	}
	out := make([]snaple.VertexID, 0, len(fields))
	for _, f := range fields {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		id, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("-sources: bad vertex id %q: %w", f, err)
		}
		out = append(out, snaple.VertexID(id))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-sources: no vertex ids in %q", s)
	}
	return out, nil
}

// run is one prediction invocation: args are the command line after the
// program name. The prediction and deployment settings parse straight into
// one snaple.Options, whose literal below holds every default they have.
func run(args []string) error {
	opts := snaple.Options{
		Score: "linearSum", Alpha: 0.9, K: 5, KLocal: 20, ThrGamma: 200, Policy: "max",
		Seed: 42, Engine: "sim", Nodes: 1, NodeType: "type-II", Strategy: "hash-edge",
	}
	fs := flag.NewFlagSet("snaple", flag.ContinueOnError)
	opts.BindFlags(fs)
	fs.IntVar(&opts.K, "k", opts.K, "predictions per vertex")
	fs.IntVar(&opts.Nodes, "nodes", opts.Nodes, "simulated cluster nodes")
	fs.StringVar(&opts.NodeType, "nodetype", opts.NodeType, "node type: type-I|type-II")
	fs.StringVar(&opts.Strategy, "strategy", opts.Strategy, "vertex-cut strategy: hash-edge|hash-source|greedy")
	fs.Int64Var(&opts.MemBudgetBytes, "budget", opts.MemBudgetBytes, "per-node memory budget in bytes (0 = node capacity)")
	fs.BoolVar(&opts.WireCompress, "wire-compress", opts.WireCompress, "compress dist wire frames (flate)")
	var (
		in        = fs.String("in", "", "input edge-list file (SNAP format)")
		symmetric = fs.Bool("symmetric", false, "treat the input as undirected")
		dataset   = fs.String("dataset", "", "generate a dataset analog instead of reading a file")
		scale     = fs.Float64("scale", 1.0, "dataset scale multiplier")
		verify    = fs.Bool("verify", false, "fully re-verify snapshot checksums and row invariants on load (mapped loads default to the cheap structural checks)")

		system  = fs.String("system", "snaple", "predictor: snaple|baseline|walks")
		scores  = fs.Bool("scores", false, "list available scores and exit")
		sources = fs.String("sources", "", "scope the prediction to these source vertices: comma-separated IDs, or @FILE with whitespace-separated IDs ('#' comments); empty = all vertices")
		walks   = fs.Int("walks", 100, "walks per vertex (system=walks)")
		depth   = fs.Int("depth", 3, "walk depth (system=walks)")

		doEval = fs.Bool("eval", false, "hide one edge per vertex and report recall")
		vertex = fs.Int("vertex", -1, "print predictions for this vertex")
		dump   = fs.String("dump", "", "write predictions to FILE as 'vertex<TAB>target<TAB>hexfloat' lines (byte-stable across runs; for scripted equivalence checks)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scores {
		for _, s := range snaple.ScoreNames() {
			fmt.Println(s)
		}
		return nil
	}

	// gv is the view predictions run over: the loaded CSR (possibly mmap'd
	// or packed), or the split's remove-only overlay when evaluating.
	gv, err := load(*in, *dataset, *scale, opts.Seed, snaple.GraphReadOptions{Symmetrize: *symmetric, Verify: *verify})
	if err != nil {
		return err
	}
	fmt.Printf("graph: %s\n", gv)

	var split *snaple.Split
	if *doEval {
		// The split hides edges behind an overlay built from a heap-shaped
		// CSR, so packed views decode once here; mapped plain CSRs pass
		// through (the overlay never mutates its base).
		g, err := graph.HeapCSR(gv)
		if err != nil {
			return err
		}
		split, err = snaple.NewSplit(g, 1, opts.Seed)
		if err != nil {
			return err
		}
		fmt.Printf("protocol: hid %d edges (1 per vertex with degree > 3)\n", split.NumRemoved)
		gv = split.Train
	}

	// Validate up front so a typo'd -engine errors for every -system, not
	// just snaple (the only system the backend choice applies to).
	if !slices.Contains(snaple.EngineNames(), opts.Engine) {
		return fmt.Errorf("unknown engine %q (%s)", opts.Engine, strings.Join(snaple.EngineNames(), "|"))
	}
	srcs, err := parseSources(*sources)
	if err != nil {
		return err
	}
	if srcs != nil && *system != "snaple" {
		return fmt.Errorf("-sources only applies to -system snaple")
	}
	if srcs != nil && *doEval {
		// Recall's denominator is every vertex's hidden edge; a scoped run
		// only predicts for the sources, so the figure would be silently
		// deflated to near zero. Refuse rather than mislead.
		return fmt.Errorf("-sources cannot be combined with -eval: recall is defined over all vertices, a scoped run predicts only for the sources")
	}
	opts.Sources = srcs

	var (
		preds snaple.Predictions
		st    snaple.EngineStats
	)
	start := time.Now()
	switch *system {
	case "snaple":
		preds, st, err = snaple.PredictStats(gv, opts)
	case "baseline":
		preds, st, err = snaple.PredictBaseline(gv, opts)
	case "walks":
		preds, err = snaple.PredictWalks(gv, *walks, *depth, opts.K, opts.Seed)
	default:
		return fmt.Errorf("unknown system %q (snaple|baseline|walks)", *system)
	}
	exhausted := errors.Is(err, snaple.ErrMemoryExhausted)
	if st.Engine != "" && (err == nil || exhausted) {
		printStats(st, gv.NumVertices())
	}
	if exhausted {
		fmt.Printf("RESOURCE EXHAUSTION: %v\n", err)
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Printf("predicted in %.2fs (host wall)\n", time.Since(start).Seconds())

	if *vertex >= 0 {
		if *vertex >= len(preds) || len(preds[*vertex]) == 0 {
			fmt.Printf("vertex %d: no predictions\n", *vertex)
		} else {
			fmt.Printf("vertex %d predictions:\n", *vertex)
			for i, p := range preds[*vertex] {
				fmt.Printf("  %d. vertex %d (score %.4f)\n", i+1, p.Vertex, p.Score)
			}
		}
	}
	total := 0
	for _, ps := range preds {
		total += len(ps)
	}
	fmt.Printf("predictions: %d across %d vertices\n", total, len(preds))
	if split != nil {
		fmt.Printf("recall@%d: %.4f\n", opts.K, snaple.Recall(preds, split))
	}
	if *dump != "" {
		if err := writeDump(*dump, preds); err != nil {
			return err
		}
		fmt.Printf("dumped %d predictions to %s\n", total, *dump)
	}
	return nil
}

// writeDump writes predictions as "vertex\ttarget\thexfloat" lines. Scores
// are printed as exact hexadecimal floats ('x' format), so two runs agree on
// this file byte-for-byte iff their predictions are bit-identical — the
// property the chaos smoke leg asserts with a plain cmp(1) after killing a
// worker mid-run.
func writeDump(path string, preds snaple.Predictions) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for v, ps := range preds {
		for _, p := range ps {
			fmt.Fprintf(w, "%d\t%d\t%x\n", v, p.Vertex, p.Score)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// load opens the -in file or generates the -dataset analog.
func load(in, dataset string, scale float64, seed uint64, ro snaple.GraphReadOptions) (snaple.GraphView, error) {
	switch {
	case in != "" && dataset != "":
		return nil, fmt.Errorf("use either -in or -dataset, not both")
	case in != "":
		// Format (text edge list vs binary snapshot) is detected by magic
		// bytes, so packed and plain graphs are interchangeable here.
		// Format-v2 snapshots arrive zero-copy: mmap'd when the platform
		// allows, aliased from one aligned read otherwise.
		start := time.Now()
		v, info, err := snaple.OpenGraphFile(in, ro)
		if err != nil {
			return nil, err
		}
		el := time.Since(start).Seconds()
		fmt.Printf("loaded %s in %.3fs: %.1f MiB at %.0f MB/s (%s)\n",
			in, el, float64(info.Bytes)/(1<<20),
			float64(info.Bytes)/1e6/max(el, 1e-9), info)
		return v, nil
	case dataset != "":
		return snaple.Dataset(dataset, scale, seed)
	default:
		return nil, fmt.Errorf("need -in FILE or -dataset NAME")
	}
}

// runPack implements `snaple pack`: one-time conversion of a graph file
// into a binary CSR snapshot, after which loads skip parsing, remapping
// and sorting entirely. A snapshot is also a valid input, which is how
// existing files convert in place: plain -> packed adjacency (-packed) or
// back, or adding the reverse adjacency (-in-edges). With -shards N it
// additionally computes the vertex cut once and writes each partition as
// its own resident shard file (<out>.0 .. <out>.N-1) plus a fleet manifest
// (<out>.manifest): workers
// started with `snaple-worker -shard <out>.i` then pin their partition
// across sessions, and coordinators pointed at the manifest attach with a
// fingerprint handshake instead of shipping partitions per run.
func runPack(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("snaple pack", flag.ContinueOnError)
	var (
		in        = fs.String("in", "", "input graph file (text edge list or snapshot)")
		out       = fs.String("out", "", "output snapshot path (default: input path with .sgr extension)")
		symmetric = fs.Bool("symmetric", false, "treat a text input as undirected (duplicate every edge both ways)")
		preserve  = fs.Bool("preserve-ids", false, "keep raw vertex IDs (honors the '# vertices:' header) instead of remapping densely")
		inEdges   = fs.Bool("in-edges", false, "also pack the reverse adjacency")
		packed    = fs.Bool("packed", false, "delta-varint compress the adjacency rows (smaller file; rows decode on demand at query time)")
		workers   = fs.Int("workers", 0, "parser shard fan-out (0 = GOMAXPROCS)")
		shards    = fs.Int("shards", 0, "also write a resident shard set for a standing worker fleet: <out>.0..N-1 plus <out>.manifest (0 = snapshot only)")
		strategy  = fs.String("strategy", "hash-edge", "vertex-cut strategy for -shards: hash-edge|hash-source|greedy")
		seed      = fs.Uint64("seed", 42, "vertex-cut seed for -shards")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("need -in FILE")
	}
	if *shards < 0 {
		return fmt.Errorf("-shards %d: need >= 0", *shards)
	}
	outPath := *out
	if outPath == "" {
		outPath = strings.TrimSuffix(*in, filepath.Ext(*in)) + ".sgr"
	}
	// Never truncate the input in place (os.Create would, and a failed
	// write would then delete the only copy): re-packing a .sgr needs an
	// explicit distinct -out. os.SameFile catches what string comparison
	// misses — relative vs absolute spellings, symlinks, hard links.
	if filepath.Clean(outPath) == filepath.Clean(*in) {
		return fmt.Errorf("output %s would overwrite the input; pass a different -out", outPath)
	}
	if inInfo, err := os.Stat(*in); err == nil {
		if outInfo, err := os.Stat(outPath); err == nil && os.SameFile(inInfo, outInfo) {
			return fmt.Errorf("output %s is the input file; pass a different -out", outPath)
		}
	}
	// Check every output path up front, so a refusal can never leave a
	// half-written shard set behind.
	outputs := []string{outPath}
	for i := 0; i < *shards; i++ {
		outputs = append(outputs, fmt.Sprintf("%s.%d", outPath, i))
	}
	if *shards > 0 {
		outputs = append(outputs, outPath+".manifest")
	}
	for _, p := range outputs {
		if err := refuseForeignOverwrite(p); err != nil {
			return err
		}
	}
	start := time.Now()
	g, err := snaple.ReadGraphFile(*in, snaple.GraphReadOptions{
		Symmetrize: *symmetric, PreserveIDs: *preserve,
		WithInEdges: *inEdges, Workers: *workers,
	})
	if err != nil {
		return err
	}
	loaded := time.Since(start)
	if err := writeOutput(outPath, func(f io.Writer) error {
		return snaple.WriteSnapshotOpts(f, g, snaple.SnapshotOptions{Packed: *packed})
	}); err != nil {
		return err
	}
	fi, err := os.Stat(outPath)
	if err != nil {
		return err
	}
	enc := "plain"
	if *packed {
		enc = "packed"
	}
	wrote := time.Since(start).Seconds() - loaded.Seconds()
	fmt.Fprintf(w, "packed %s -> %s: %s, %d bytes (%.1f MiB, %s) in %.2fs read + %.2fs write, %.0f edges/s\n",
		*in, outPath, g, fi.Size(), float64(fi.Size())/(1<<20), enc,
		loaded.Seconds(), wrote, float64(g.NumEdges())/max(wrote, 1e-9))
	if *shards > 0 {
		if err := packShards(g, outPath, *shards, *strategy, *seed, w); err != nil {
			return err
		}
	}
	return nil
}

// packShards computes the vertex cut once and writes the resident shard set
// next to the snapshot.
func packShards(g *snaple.Graph, outPath string, shards int, strategy string, seed uint64, w io.Writer) error {
	strat, err := partition.ByName(strategy, seed)
	if err != nil {
		return err
	}
	start := time.Now()
	files, man, err := engine.PackShards(g, strat, seed, shards)
	if err != nil {
		return err
	}
	var total int64
	for i, sf := range files {
		p := fmt.Sprintf("%s.%d", outPath, i)
		if err := writeOutput(p, func(f io.Writer) error { return graph.WriteShard(f, sf) }); err != nil {
			return err
		}
		// Manifest paths are relative to the manifest's own directory, so a
		// packed set can be moved or mounted wholesale.
		man.Files[i] = filepath.Base(p)
		if fi, err := os.Stat(p); err == nil {
			total += fi.Size()
		}
	}
	manPath := outPath + ".manifest"
	if err := writeOutput(manPath, func(f io.Writer) error { return graph.WriteManifest(f, man) }); err != nil {
		return err
	}
	fmt.Fprintf(w, "packed %d resident shards (%s, seed %d) -> %s.{0..%d} + %s: %.1f MiB, fingerprint %016x (%.2fs)\n",
		shards, man.Strategy, seed, outPath, shards-1, filepath.Base(manPath),
		float64(total)/(1<<20), man.Fingerprint, time.Since(start).Seconds())
	return nil
}

// refuseForeignOverwrite refuses to clobber an existing file this tool did
// not write: re-packing over a previous snapshot, shard or manifest is fine,
// but a typo'd -out must not destroy unrelated data.
func refuseForeignOverwrite(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	var magic [8]byte
	n, _ := io.ReadFull(f, magic[:])
	if n > 0 && !graph.KnownMagic(magic[:n]) {
		return fmt.Errorf("%s exists and is not a snaple snapshot, shard or manifest; refusing to overwrite it (pass a different -out or remove it first)", path)
	}
	return nil
}

// writeOutput creates path, streams the payload and removes the file again
// on a failed write, so an error never leaves a truncated output behind.
func writeOutput(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

// printStats reports what a run cost: the closure of a scoped run, then
// throughput and heap churn for the in-memory backends, the simulated
// cluster's costs for sim, measured traffic and fleet health for dist.
func printStats(st snaple.EngineStats, vertices int) {
	if st.FrontierVertices > 0 {
		fmt.Printf("frontier: %d sources -> %d-vertex closure (of %d)\n",
			st.ScoredVertices, st.FrontierVertices, vertices)
	}
	switch st.Engine {
	case "sim":
		fmt.Printf("engine: sim=%.3fs cross=%.1fMiB msgs=%d peak=%.1fMiB/node rf=%.2f\n",
			st.SimSeconds, float64(st.CrossBytes)/(1<<20), st.CrossMsgs,
			float64(st.MemPeakBytes)/(1<<20), st.ReplicationFactor)
	case "dist", "fleet":
		// Everything here is measured, not simulated: real sockets, real
		// heap. The raw byte count rides along so scripts (cluster_smoke.sh's
		// compression check) can compare runs without MiB rounding.
		fmt.Printf("engine: %s wall=%.3fs cross=%.1fMiB (%d B) msgs=%d (measured) peak=%.1fMiB/worker rf=%.2f\n",
			st.Engine, st.WallSeconds, float64(st.CrossBytes)/(1<<20), st.CrossBytes, st.CrossMsgs,
			float64(st.MemPeakBytes)/(1<<20), st.ReplicationFactor)
		fmt.Printf("fleet: replicas=%d dead=%d failovers=%d dial-retries=%d\n",
			st.Replicas, st.WorkersDead, st.Failovers, st.DialRetries)
	default:
		fmt.Printf("engine: %s workers=%d %.2fs %.0f edges/s alloc=%.1fMiB (%d objects)\n",
			st.Engine, st.Workers, st.WallSeconds, st.EdgesPerSec,
			float64(st.AllocBytes)/(1<<20), st.AllocObjects)
	}
}

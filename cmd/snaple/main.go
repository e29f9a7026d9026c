// Command snaple runs link prediction on a graph: SNAPLE on one of the
// pluggable execution backends (parallel shared-memory "local", serial
// reference, the simulated distributed GAS engine "sim", or the real
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
	if len(os.Args) > 1 && os.Args[1] == "pack" {
		if err := runPack(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "snaple: pack:", err)
			os.Exit(1)
		}
		return
	}
	var (
		in        = flag.String("in", "", "input edge-list file (SNAP format)")
		symmetric = flag.Bool("symmetric", false, "treat the input as undirected")
		dataset   = flag.String("dataset", "", "generate a dataset analog instead of reading a file")
		scale     = flag.Float64("scale", 1.0, "dataset scale multiplier")
		seed      = flag.Uint64("seed", 42, "run seed")

		system = flag.String("system", "snaple", "predictor: snaple|baseline|walks")
		score  = flag.String("score", "linearSum", "SNAPLE score (see -scores)")
		scores = flag.Bool("scores", false, "list available scores and exit")
		k      = flag.Int("k", 5, "predictions per vertex")
		klocal = flag.Int("klocal", 20, "relay sample size (0 = unlimited)")
		thr    = flag.Int("thr", 200, "truncation threshold thrGamma (0 = unlimited)")
		policy = flag.String("policy", "max", "relay selection policy: max|min|rnd")
		alpha  = flag.Float64("alpha", 0.9, "linear combinator alpha")

		// The backend set comes from the engine layer's single source of
		// truth, so this help text can never silently miss a backend.
		engineF  = flag.String("engine", "sim", "execution backend for -system snaple: "+strings.Join(snaple.EngineNames(), "|"))
		workers  = flag.Int("workers", 0, "worker goroutines for the chosen backend (0 = GOMAXPROCS; for -engine dist: loopback worker count, 0 = 2)")
		serial   = flag.Bool("serial", false, "deprecated: same as -engine serial")
		nodes    = flag.Int("nodes", 1, "simulated cluster nodes")
		nodeType = flag.String("nodetype", "type-II", "node type: type-I|type-II")
		strategy = flag.String("strategy", "hash-edge", "vertex-cut strategy: hash-edge|hash-source|greedy")
		budget   = flag.Int64("budget", 0, "per-node memory budget in bytes (0 = node capacity)")

		addrs        = flag.String("addrs", "", "comma-separated snaple-worker addresses for -engine dist")
		spawn        = flag.Int("spawn", 0, "auto-spawn this many local snaple-worker processes for -engine dist")
		workerBin    = flag.String("worker-bin", "", "snaple-worker binary for -spawn (default: found on PATH)")
		wireCompress = flag.Bool("wire-compress", false, "compress dist wire frames (flate)")
		replicas     = flag.Int("replicas", 0, "ship every partition to this many dist workers; a worker death then fails over to a survivor with bit-identical results (0 or 1 = no replication)")
		stepTimeout  = flag.Duration("step-timeout", 0, "per-phase deadline on dist superstep exchanges; a wedged worker is declared dead at the deadline (0 = 10m default, negative = unbounded)")
		dialAttempts = flag.Int("dial-attempts", 0, "connect/spawn attempts per dist worker, retried with exponential backoff (0 = 3)")
		dump         = flag.String("dump", "", "write predictions to FILE as 'vertex<TAB>target<TAB>hexfloat' lines (byte-stable across runs; for scripted equivalence checks)")

		sources = flag.String("sources", "", "scope the prediction to these source vertices: comma-separated IDs, or @FILE with whitespace-separated IDs ('#' comments); empty = all vertices")

		walks = flag.Int("walks", 100, "walks per vertex (system=walks)")
		depth = flag.Int("depth", 3, "walk depth (system=walks)")

		doEval = flag.Bool("eval", false, "hide one edge per vertex and report recall")
		vertex = flag.Int("vertex", -1, "print predictions for this vertex")
		verify = flag.Bool("verify", false, "fully re-verify snapshot checksums and row invariants on load (mapped loads default to the cheap structural checks)")
	)
	flag.Parse()

	if *scores {
		for _, s := range snaple.ScoreNames() {
			fmt.Println(s)
		}
		return
	}
	engineSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "engine" {
			engineSet = true
		}
	})
	if err := run(runArgs{
		in: *in, symmetric: *symmetric, dataset: *dataset, scale: *scale, seed: *seed,
		system: *system, score: *score, k: *k, klocal: *klocal, thr: *thr,
		policy: *policy, alpha: *alpha, engine: *engineF, engineSet: engineSet,
		workers: *workers, serial: *serial,
		nodes: *nodes, nodeType: *nodeType, strategy: *strategy, budget: *budget,
		addrs: *addrs, spawn: *spawn, workerBin: *workerBin,
		wireCompress: *wireCompress, sources: *sources,
		replicas: *replicas, stepTimeout: *stepTimeout, dialAttempts: *dialAttempts,
		dump:  *dump,
		walks: *walks, depth: *depth, doEval: *doEval, vertex: *vertex,
		verify: *verify,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "snaple:", err)
		os.Exit(1)
	}
}

type runArgs struct {
	in           string
	symmetric    bool
	dataset      string
	scale        float64
	seed         uint64
	system       string
	score        string
	k, klocal    int
	thr          int
	policy       string
	alpha        float64
	engine       string
	engineSet    bool
	workers      int
	serial       bool
	nodes        int
	nodeType     string
	strategy     string
	budget       int64
	addrs        string
	spawn        int
	workerBin    string
	wireCompress bool
	sources      string
	replicas     int
	stepTimeout  time.Duration
	dialAttempts int
	dump         string
	walks        int
	depth        int
	doEval       bool
	vertex       int
	verify       bool
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

func run(a runArgs) error {
	// gv is the view predictions run over: the loaded CSR (possibly mmap'd
	// or packed), or the split's remove-only overlay when evaluating.
	gv, err := load(a)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %s\n", gv)

	var split *snaple.Split
	if a.doEval {
		// The split hides edges behind an overlay built from a heap-shaped
		// CSR, so packed views decode once here; mapped plain CSRs pass
		// through (the overlay never mutates its base).
		g, err := heapGraph(gv)
		if err != nil {
			return err
		}
		split, err = snaple.NewSplit(g, 1, a.seed)
		if err != nil {
			return err
		}
		fmt.Printf("protocol: hid %d edges (1 per vertex with degree > 3)\n", split.NumRemoved)
		gv = split.Train
	}

	eng := a.engine
	if a.serial {
		// Back-compat: -serial predates -engine. Honour it only when -engine
		// was not given explicitly; a contradictory combination is an error.
		if a.engineSet && a.engine != "serial" {
			return fmt.Errorf("-serial conflicts with -engine %s", a.engine)
		}
		eng = "serial"
	}
	if eng == "" {
		eng = "sim" // zero-value runArgs (direct run() callers): the flag default
	}
	// Validate up front so a typo'd -engine errors for every -system, not
	// just snaple (the only system the backend choice applies to).
	if !slices.Contains(snaple.EngineNames(), eng) {
		return fmt.Errorf("unknown engine %q (%s)", eng, strings.Join(snaple.EngineNames(), "|"))
	}
	srcs, err := parseSources(a.sources)
	if err != nil {
		return err
	}
	if srcs != nil && a.system != "snaple" {
		return fmt.Errorf("-sources only applies to -system snaple")
	}
	if srcs != nil && a.doEval {
		// Recall's denominator is every vertex's hidden edge; a scoped run
		// only predicts for the sources, so the figure would be silently
		// deflated to near zero. Refuse rather than mislead.
		return fmt.Errorf("-sources cannot be combined with -eval: recall is defined over all vertices, a scoped run predicts only for the sources")
	}
	opts := snaple.Options{
		Score: a.score, Alpha: a.alpha, K: a.k, KLocal: a.klocal,
		ThrGamma: a.thr, Policy: a.policy, Seed: a.seed,
		Engine: eng, Workers: a.workers, Sources: srcs,
	}
	cl := snaple.ClusterOptions{
		Nodes: a.nodes, NodeType: a.nodeType, Strategy: a.strategy,
		MemBudgetBytes: a.budget, Seed: a.seed, Workers: a.workers,
		SpawnWorkers: a.spawn, WorkerBin: a.workerBin,
		WireCompress: a.wireCompress, Replicas: a.replicas,
		StepTimeout: a.stepTimeout, DialAttempts: a.dialAttempts,
	}
	if a.addrs != "" {
		cl.WorkerAddrs = strings.Split(a.addrs, ",")
	}

	var preds snaple.Predictions
	start := time.Now()
	switch a.system {
	case "snaple":
		if eng == "sim" || eng == "dist" {
			// Both deployment-aware backends go through PredictDistributed,
			// which reports cluster costs: simulated for sim, measured on
			// the wire for dist.
			var res *snaple.Result
			res, err = snaple.PredictDistributed(gv, opts, cl)
			if res != nil {
				preds = res.Predictions
				printStats(res)
			}
		} else {
			var st snaple.EngineStats
			preds, st, err = snaple.PredictStats(gv, opts)
			if err == nil {
				fmt.Printf("engine: %s workers=%d %.2fs %.0f edges/s alloc=%.1fMiB (%d objects)\n",
					st.Engine, st.Workers, st.WallSeconds, st.EdgesPerSec,
					float64(st.AllocBytes)/(1<<20), st.AllocObjects)
				if st.FrontierVertices > 0 {
					fmt.Printf("frontier: %d sources -> %d-vertex closure (of %d)\n",
						st.ScoredVertices, st.FrontierVertices, gv.NumVertices())
				}
			}
		}
	case "baseline":
		var res *snaple.Result
		res, err = snaple.PredictBaseline(gv, a.k, cl)
		if res != nil {
			preds = res.Predictions
			printStats(res)
		}
	case "walks":
		preds, err = snaple.PredictWalks(gv, a.walks, a.depth, a.k, a.seed)
	default:
		return fmt.Errorf("unknown system %q (snaple|baseline|walks)", a.system)
	}
	if err != nil {
		if errors.Is(err, snaple.ErrMemoryExhausted) {
			fmt.Printf("RESOURCE EXHAUSTION: %v\n", err)
			return nil
		}
		return err
	}
	fmt.Printf("predicted in %.2fs (host wall)\n", time.Since(start).Seconds())

	if a.vertex >= 0 {
		if a.vertex >= len(preds) || len(preds[a.vertex]) == 0 {
			fmt.Printf("vertex %d: no predictions\n", a.vertex)
		} else {
			fmt.Printf("vertex %d predictions:\n", a.vertex)
			for i, p := range preds[a.vertex] {
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
		fmt.Printf("recall@%d: %.4f\n", a.k, snaple.Recall(preds, split))
	}
	if a.dump != "" {
		if err := writeDump(a.dump, preds); err != nil {
			return err
		}
		fmt.Printf("dumped %d predictions to %s\n", total, a.dump)
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

func load(a runArgs) (snaple.GraphView, error) {
	switch {
	case a.in != "" && a.dataset != "":
		return nil, fmt.Errorf("use either -in or -dataset, not both")
	case a.in != "":
		// Format (text edge list vs binary snapshot) is detected by magic
		// bytes, so packed and plain graphs are interchangeable here.
		// Format-v2 snapshots arrive zero-copy: mmap'd when the platform
		// allows, aliased from one aligned read otherwise.
		start := time.Now()
		v, info, err := snaple.OpenGraphFile(a.in, snaple.GraphReadOptions{
			Symmetrize: a.symmetric, Verify: a.verify,
		})
		if err != nil {
			return nil, err
		}
		el := time.Since(start).Seconds()
		how := "parsed text"
		if info.Version > 0 {
			how = "heap"
			if info.Mapped {
				how = "mmap"
			}
			how = fmt.Sprintf("snapshot v%d, %s", info.Version, how)
			if info.Packed {
				how += ", packed adjacency"
			}
		}
		fmt.Printf("loaded %s in %.3fs: %.1f MiB at %.0f MB/s (%s)\n",
			a.in, el, float64(info.Bytes)/(1<<20),
			float64(info.Bytes)/1e6/max(el, 1e-9), how)
		return v, nil
	case a.dataset != "":
		return snaple.Dataset(a.dataset, a.scale, a.seed)
	default:
		return nil, fmt.Errorf("need -in FILE or -dataset NAME")
	}
}

// heapGraph unwraps gv to the heap-shaped CSR some paths require: a
// pass-through for plain CSRs (including mmap'd ones) and a one-time
// decode for packed-adjacency views.
func heapGraph(gv snaple.GraphView) (*snaple.Graph, error) {
	if g, ok := graph.AsCSR(gv); ok {
		return g, nil
	}
	if p, ok := gv.(*graph.Packed); ok {
		return p.Decode()
	}
	return nil, fmt.Errorf("cannot materialise %s as a CSR", gv)
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

func printStats(r *snaple.Result) {
	if r.FrontierVertices > 0 {
		fmt.Printf("frontier: %d sources -> %d-vertex closure\n", r.ScoredVertices, r.FrontierVertices)
	}
	if r.Engine == "dist" || r.Engine == "fleet" {
		// Everything here is measured, not simulated: real sockets, real
		// heap. The raw byte count rides along so scripts (cluster_smoke.sh's
		// compression check) can compare runs without MiB rounding.
		fmt.Printf("engine: %s wall=%.3fs cross=%.1fMiB (%d B) msgs=%d (measured) peak=%.1fMiB/worker rf=%.2f\n",
			r.Engine, r.WallSeconds, float64(r.CrossBytes)/(1<<20), r.CrossBytes, r.CrossMsgs,
			float64(r.MemPeakBytes)/(1<<20), r.ReplicationFactor)
		fmt.Printf("fleet: replicas=%d dead=%d failovers=%d dial-retries=%d\n",
			r.Replicas, r.WorkersDead, r.Failovers, r.DialRetries)
		return
	}
	fmt.Printf("engine: sim=%.3fs cross=%.1fMiB msgs=%d peak=%.1fMiB/node rf=%.2f\n",
		r.SimSeconds, float64(r.CrossBytes)/(1<<20), r.CrossMsgs,
		float64(r.MemPeakBytes)/(1<<20), r.ReplicationFactor)
}

// Command snaple-serve is the online face of the repository: a long-lived
// HTTP server that loads a graph once — ideally a binary CSR snapshot
// (.sgr), which loads at disk speed — and answers per-user top-k link
// prediction queries from it using the query-scoped engine layer.
//
// Concurrent requests are micro-batched into one frontier run per tick and
// per-vertex results are kept in an LRU cache, so a hot vertex costs one
// scoped prediction ever, and a burst of N distinct users costs one closure
// computation, not N (see internal/serve).
//
// Usage:
//
//	snaple pack -in graph.txt -out graph.sgr
//	snaple-serve -in graph.sgr -listen :8080 -kmax 20 -klocal 20
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/predict -d '{"ids":[1,2,3],"k":5}'
//	curl -s localhost:8080/v1/info
//	curl -s localhost:8080/statsz
//
// With -mutable the served graph is live: POST /v1/edges applies an edge
// batch as a delta overlay (no CSR rebuild; cached rows inside the mutated
// frontier are invalidated, everything else keeps serving from cache), and
// the overlay is folded back into a fresh CSR on POST /v1/compact or
// automatically at -compact-at dirty rows, optionally persisting the
// compacted snapshot with -compact-out:
//
//	snaple-serve -in graph.sgr -mutable -compact-at 10000 -compact-out graph.sgr
//	curl -s -X POST localhost:8080/v1/edges -d '{"add":[[1,2],[3,4]],"remove":[[5,6]]}'
//	curl -s -X POST localhost:8080/v1/compact
//
// With -manifest the server fronts a standing resident fleet instead of
// computing locally: `snaple pack -shards N` packs the partitions once,
// `snaple-worker -shard graph.sgr.i` pins them, and any number of serve
// front-ends attach to the same workers by fingerprint handshake:
//
//	snaple pack -in graph.txt -out graph.sgr -shards 3
//	snaple-worker -shard graph.sgr.0 & snaple-worker -shard graph.sgr.1 & ...
//	snaple-serve -in graph.sgr -manifest graph.sgr.manifest -addrs h0:7777,h1:7777,h2:7777
//
// On startup the server prints "serving <addr>" to stdout once the listener
// is bound (with -listen :0 the kernel picks the port), which is the
// machine-readable handshake scripts/serve_smoke.sh waits for.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"snaple"
	"snaple/internal/core"
	"snaple/internal/engine"
	"snaple/internal/graph"
	"snaple/internal/serve"
)

func main() {
	var (
		in        = flag.String("in", "", "graph file to serve (.sgr snapshot or text edge list, auto-detected)")
		symmetric = flag.Bool("symmetric", false, "treat a text input as undirected")
		listen    = flag.String("listen", ":8080", "HTTP listen address (use :0 for an ephemeral port)")

		score  = flag.String("score", "linearSum", "SNAPLE score (see snaple -scores)")
		alpha  = flag.Float64("alpha", 0.9, "linear combinator alpha")
		kmax   = flag.Int("kmax", 20, "maximum servable predictions per vertex (requests may ask for any k up to this)")
		klocal = flag.Int("klocal", 20, "relay sample size (0 = unlimited)")
		thr    = flag.Int("thr", 200, "truncation threshold thrGamma (0 = unlimited)")
		policy = flag.String("policy", "max", "relay selection policy: max|min|rnd")
		paths  = flag.Int("paths", 2, "maximum path length: 2 or 3")
		seed   = flag.Uint64("seed", 42, "run seed")

		engineF = flag.String("engine", "local", "execution backend: "+strings.Join(snaple.EngineNames(), "|"))
		workers = flag.Int("workers", 0, "worker goroutines for the backend (0 = GOMAXPROCS)")

		manifest     = flag.String("manifest", "", "fleet manifest written by `snaple pack -shards`: attach to the resident workers at -addrs (shard-major when -replicas > 1) by fingerprint handshake instead of shipping partitions; implies -engine dist")
		addrs        = flag.String("addrs", "", "comma-separated snaple-worker addresses for -engine dist")
		spawn        = flag.Int("spawn", 0, "auto-spawn this many local snaple-worker processes for -engine dist")
		workerBin    = flag.String("worker-bin", "", "snaple-worker binary for -spawn (default: found on PATH)")
		replicas     = flag.Int("replicas", 0, "ship every partition to this many dist workers; worker deaths fail over to survivors (0 or 1 = no replication)")
		stepTimeout  = flag.Duration("step-timeout", 0, "per-phase deadline on dist superstep exchanges (0 = 10m default, negative = unbounded)")
		dialAttempts = flag.Int("dial-attempts", 0, "connect/spawn attempts per dist worker, retried with backoff (0 = 3)")
		runTimeout   = flag.Duration("run-timeout", 0, "deadline on each batch's backend run; on dist a wedged fleet fails the batch instead of the server (0 = unbounded)")

		batchWindow = flag.Duration("batch-window", 2*time.Millisecond, "micro-batch collection window")
		batchMax    = flag.Int("batch-max", 4096, "max distinct uncached vertices per batch run (also the per-request id limit)")
		cacheSize   = flag.Int("cache", 65536, "LRU result cache capacity (vertices)")

		verify     = flag.Bool("verify", false, "fully re-verify snapshot checksums and row invariants on load (mapped loads default to the cheap structural checks)")
		mutable    = flag.Bool("mutable", false, "serve a live graph: accept POST /v1/edges mutation batches; loads on the heap, never mmap'd (incompatible with -manifest)")
		compactAt  = flag.Int("compact-at", 0, "auto-compact the mutation overlay once this many vertices have pending edits (0 = only on POST /v1/compact)")
		compactOut = flag.String("compact-out", "", "persist each compaction as a fresh .sgr snapshot at this path (atomic rename)")
	)
	flag.Parse()
	if err := run(serveArgs{
		in: *in, symmetric: *symmetric, listen: *listen,
		score: *score, alpha: *alpha, kmax: *kmax, klocal: *klocal,
		thr: *thr, policy: *policy, paths: *paths, seed: *seed,
		engine: *engineF, workers: *workers,
		manifest: *manifest, addrs: *addrs, spawn: *spawn, workerBin: *workerBin,
		replicas: *replicas, stepTimeout: *stepTimeout,
		dialAttempts: *dialAttempts, runTimeout: *runTimeout,
		batchWindow: *batchWindow, batchMax: *batchMax, cacheSize: *cacheSize,
		mutable: *mutable, compactAt: *compactAt, compactOut: *compactOut,
		verify: *verify,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "snaple-serve:", err)
		os.Exit(1)
	}
}

type serveArgs struct {
	in           string
	symmetric    bool
	listen       string
	score        string
	alpha        float64
	kmax         int
	klocal       int
	thr          int
	policy       string
	paths        int
	seed         uint64
	engine       string
	workers      int
	manifest     string
	addrs        string
	spawn        int
	workerBin    string
	replicas     int
	stepTimeout  time.Duration
	dialAttempts int
	runTimeout   time.Duration
	batchWindow  time.Duration
	batchMax     int
	cacheSize    int
	mutable      bool
	compactAt    int
	compactOut   string
	verify       bool
}

// heapCSR unwraps v to the compact heap-shaped CSR the mutable path
// requires: pass-through for plain CSRs (mmap'd included), a one-time
// decode for packed-adjacency views.
func heapCSR(v snaple.GraphView) (*graph.Digraph, error) {
	if g, ok := graph.AsCSR(v); ok {
		return g, nil
	}
	if p, ok := v.(*graph.Packed); ok {
		return p.Decode()
	}
	return nil, fmt.Errorf("cannot materialise %s as a CSR", v)
}

func run(a serveArgs) error {
	if a.in == "" {
		return fmt.Errorf("need -in FILE (tip: pack big edge lists once with `snaple pack`)")
	}
	start := time.Now()
	// Frozen servers take the zero-copy path when the file allows it (v2
	// snapshot, mmap-capable platform); -mutable pins the heap path because
	// a live graph's base must be ordinarily-allocated memory.
	g, info, err := snaple.OpenGraphFile(a.in, snaple.GraphReadOptions{
		Symmetrize: a.symmetric, NoMap: a.mutable, Verify: a.verify,
	})
	if err != nil {
		return err
	}
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
	fmt.Fprintf(os.Stderr, "loaded %s in %.2fs (%s): %s\n", a.in, time.Since(start).Seconds(), how, g)

	spec, err := core.ScoreByName(a.score, a.alpha)
	if err != nil {
		return err
	}
	pol, err := core.PolicyByName(a.policy)
	if err != nil {
		return err
	}
	var be engine.Backend
	if a.manifest != "" || a.engine == "dist" {
		// One distributed deployment, described once: the workers at -addrs
		// (resident ones when a -manifest says what they pinned, plain ones
		// shipped their partition here otherwise), -spawn'ed ones, or an
		// in-process fleet — optionally replicated so worker deaths between
		// and during batches fail over instead of failing queries (see /statsz
		// fleet counters and /healthz degradation). The fleet stays up for the
		// server's lifetime, and several front-ends can share one set of
		// resident workers.
		if a.engine != "dist" && a.engine != "" && a.engine != "local" {
			return fmt.Errorf("-manifest requires -engine dist (got %q)", a.engine)
		}
		if a.mutable && a.manifest != "" {
			return fmt.Errorf("-mutable is incompatible with -manifest (packed shards are frozen)")
		}
		fo := engine.FleetOptions{
			Spawn: a.spawn, WorkerBin: a.workerBin, InProc: a.workers,
			Seed: a.seed, Replicas: a.replicas, StepTimeout: a.stepTimeout,
			DialAttempts: a.dialAttempts,
		}
		if a.addrs != "" {
			fo.Addrs = strings.Split(a.addrs, ",")
		}
		if a.manifest != "" {
			mf, err := os.Open(a.manifest)
			if err != nil {
				return err
			}
			fo.Manifest, err = graph.ReadManifest(mf)
			mf.Close()
			if err != nil {
				return err
			}
		}
		if a.mutable {
			// A standing fleet serves the cut it made at open; a live graph
			// is re-cut per batch by the one-shot form of the same options.
			be = engine.Dist(fo)
		} else {
			fleet, err := engine.OpenFleet(g, fo)
			if err != nil {
				return err
			}
			defer fleet.Close()
			fi := fleet.FleetInfo()
			fmt.Fprintf(os.Stderr, "fleet up: %d shards x %d replicas (fingerprint %016x)\n",
				fi.Shards, fi.Replicas, fi.Fingerprint)
			be = fleet
		}
	} else {
		be, err = engine.New(a.engine, a.workers, a.seed)
		if err != nil {
			return err
		}
	}
	if a.mutable {
		// Live graphs mutate over a compact CSR base: decode a packed view
		// once up front rather than erroring deeper in serve.New.
		csr, err := heapCSR(g)
		if err != nil {
			return err
		}
		g = csr
	}
	srv, err := serve.New(serve.Options{
		Graph:   g,
		Backend: be,
		Config: core.Config{
			Score: spec, K: a.kmax, KLocal: a.klocal, ThrGamma: a.thr,
			Policy: pol, Paths: a.paths, Seed: a.seed,
		},
		BatchWindow: a.batchWindow,
		BatchMax:    a.batchMax,
		CacheSize:   a.cacheSize,
		RunTimeout:  a.runTimeout,
		Mutable:     a.mutable,
		CompactAt:   a.compactAt,
		CompactPath: a.compactOut,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	l, err := net.Listen("tcp", a.listen)
	if err != nil {
		return err
	}
	// The machine-readable handshake (same shape as snaple-worker's
	// "listening <addr>"): scripts wait for this line before curling.
	fmt.Printf("serving %s\n", l.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "received %v, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(ctx)
	}
}

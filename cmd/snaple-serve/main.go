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
// A mutable server on -engine dist has no standing fleet: every batch run
// cuts the whole current view and ships it to the workers afresh, and
// /v1/info and /healthz report engine "dist" for it, against "fleet".
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
	"syscall"
	"time"

	"snaple"
	"snaple/internal/engine"
	"snaple/internal/graph"
	"snaple/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "snaple-serve:", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until it stops: args are the command
// line after the program name. The prediction and deployment settings parse
// straight into one snaple.Options, whose literal below holds every default
// they have.
func run(args []string) error {
	opts := snaple.Options{
		Score: "linearSum", Alpha: 0.9, K: 20, KLocal: 20, ThrGamma: 200, Policy: "max",
		Seed: 42, Engine: "local",
	}
	fs := flag.NewFlagSet("snaple-serve", flag.ContinueOnError)
	opts.BindFlags(fs)
	fs.IntVar(&opts.K, "kmax", opts.K, "maximum servable predictions per vertex (requests may ask for any k up to this)")
	fs.StringVar(&opts.Manifest, "manifest", opts.Manifest, "fleet manifest written by `snaple pack -shards`: attach to the resident workers at -addrs (shard-major when -replicas > 1) by fingerprint handshake instead of shipping partitions; implies -engine dist")
	var (
		in        = fs.String("in", "", "graph file to serve (.sgr snapshot or text edge list, auto-detected)")
		symmetric = fs.Bool("symmetric", false, "treat a text input as undirected")
		verify    = fs.Bool("verify", false, "fully re-verify snapshot checksums and row invariants on load (mapped loads default to the cheap structural checks)")
		listen    = fs.String("listen", ":8080", "HTTP listen address (use :0 for an ephemeral port)")

		runTimeout = fs.Duration("run-timeout", 0, "deadline on each batch's backend run; on dist a wedged fleet fails the batch instead of the server (0 = unbounded)")
		batchMax   = fs.Int("batch-max", 4096, "max distinct uncached vertices per batch run (also the per-request id limit)")
		cacheSize  = fs.Int("cache", 65536, "LRU result cache capacity (vertices)")

		mutable    = fs.Bool("mutable", false, "serve a live graph: accept POST /v1/edges mutation batches; loads on the heap, never mmap'd (incompatible with -manifest). With -engine dist there is no standing fleet: every batch run cuts the whole current view and ships it to the workers afresh (engine \"dist\" in /v1/info and /healthz, against \"fleet\" for a standing one)")
		compactAt  = fs.Int("compact-at", 0, "auto-compact the mutation overlay once this many vertices have pending edits (0 = only on POST /v1/compact)")
		compactOut = fs.String("compact-out", "", "persist each compaction as a fresh .sgr snapshot at this path (atomic rename)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("need -in FILE (tip: pack big edge lists once with `snaple pack`)")
	}
	if opts.Manifest != "" {
		if *mutable {
			return fmt.Errorf("-mutable is incompatible with -manifest (packed shards are frozen)")
		}
		if opts.Engine == "local" {
			opts.Engine = "dist" // the flag default; -manifest implies dist
		}
	}
	cfg, err := opts.Config()
	if err != nil {
		return err
	}
	start := time.Now()
	// Frozen servers take the zero-copy path when the file allows it (v2
	// snapshot, mmap-capable platform); -mutable pins the heap path because
	// a live graph's base must be ordinarily-allocated memory.
	g, info, err := snaple.OpenGraphFile(*in, snaple.GraphReadOptions{
		Symmetrize: *symmetric, NoMap: *mutable, Verify: *verify,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loaded %s in %.2fs (%s): %s\n", *in, time.Since(start).Seconds(), info, g)
	if *mutable {
		// Live graphs mutate over a compact CSR base: decode a packed view
		// once up front rather than erroring deeper in serve.New.
		if g, err = graph.HeapCSR(g); err != nil {
			return err
		}
	}

	// A frozen server on -engine dist stands on one fleet for its life: the
	// workers at -addrs (resident ones when a -manifest says what they
	// pinned, plain ones shipped their partition here otherwise), -spawn'ed
	// ones, or an in-process fleet — optionally replicated so worker deaths
	// between and during batches fail over instead of failing queries (see
	// /statsz fleet counters and /healthz degradation). Several front-ends
	// can share one set of resident workers. A mutable server's view changes
	// under every batch, so its dist backend is the one-shot form instead,
	// which cuts and ships each batch's view afresh.
	start = time.Now()
	be, err := opts.Backend(g, !*mutable)
	if err != nil {
		return err
	}
	if fleet, ok := be.(*engine.Fleet); ok {
		defer fleet.Close()
		fi := fleet.FleetInfo()
		fmt.Fprintf(os.Stderr, "fleet up: %d shards x %d replicas (fingerprint %016x) in %.2fs\n",
			fi.Shards, fi.Replicas, fi.Fingerprint, time.Since(start).Seconds())
	}
	srv, err := serve.New(serve.Options{
		Graph:       g,
		Backend:     be,
		Config:      cfg,
		BatchMax:    *batchMax,
		CacheSize:   *cacheSize,
		RunTimeout:  *runTimeout,
		Mutable:     *mutable,
		CompactAt:   *compactAt,
		CompactPath: *compactOut,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	l, err := net.Listen("tcp", *listen)
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

// Package serve is the online half of the repository: a long-lived
// prediction server over the query-scoped engine layer, the way GiGL puts
// one inference API over interchangeable batch and online backends and SNAP
// serves neighborhood-scoped queries from a tuned in-memory core.
//
// The server loads a graph once (ideally a binary .sgr snapshot — disk
// speed, zero per-edge work) and answers "top-k for these users" requests
// from it:
//
//   - POST /v1/predict {"ids":[...], "k":K} — per-vertex top-k predictions;
//   - POST /v1/edges {"add":[[u,v],...], "remove":[...]} — live mutation
//     (Options.Mutable), applied as a graph.Delta overlay batch;
//   - POST /v1/compact — fold the overlay back into a fresh CSR;
//   - GET /healthz — liveness plus the loaded graph's shape;
//   - GET /statsz — QPS, p50/p99 latency, cache hit rate, batch counters.
//
// Results live in an LRU keyed by vertex (a server runs one Config for its
// life). The handler reads it once per request: a fully cached request is
// answered there and then, without touching the collector or the engine,
// and only the misses go on. Concurrent misses are micro-batched by load,
// not by a clock: a collector goroutine runs a miss at once when no run is
// in flight, and the misses that arrive during a run wait for it and form
// the next tick together (up to BatchMax distinct vertices). Each tick checks
// its vertices against the cache once more — a row another tick cached
// while they waited is not recomputed — and runs one scoped prediction
// (engine.PredictScoped, the engine's one query path) over the rest — N
// concurrent users cost one closure computation, not N. Hit and miss
// answers slice the same cached row, making responses for a vertex
// identical regardless of which request computed them.
//
// With Options.Mutable the served graph is live: POST /v1/edges applies a
// mutation batch as a copy-on-write graph.Delta overlay (no CSR rebuild,
// readers keep a consistent view), and the cache is invalidated
// frontier-aware — a reverse closure walk (core.DirtySources) identifies
// exactly which cached rows a batch may have changed, so unrelated hot
// vertices keep serving from cache across mutations. When the overlay
// outgrows CompactAt dirty rows (or on POST /v1/compact) a background
// compaction folds it back into a fresh CSR, optionally persisted as a new
// .sgr snapshot via temp-file-plus-atomic-rename; compaction is
// bit-identical, so the cache survives it untouched.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"snaple/internal/core"
	"snaple/internal/engine"
	"snaple/internal/graph"
)

// Options configures a Server.
type Options struct {
	// Graph is the loaded graph to serve. Required. Mutable servers need a
	// compact CSR underneath (a *graph.Digraph, or a *graph.Delta with an
	// empty overlay); frozen servers serve any View as-is.
	Graph graph.View
	// Mutable enables POST /v1/edges: the server wraps Graph in a
	// graph.Live and serves the current view of it, invalidating cached
	// rows frontier-aware on every batch. A standing fleet backend is
	// refused (it serves the one cut it made at open); the one-shot
	// engine.Dist follows mutations by cutting and shipping each batch run's
	// view afresh.
	Mutable bool
	// CompactAt triggers a background compaction when the overlay reaches
	// this many dirty rows (0 = never auto-compact). Mutable only.
	CompactAt int
	// CompactPath, when set, persists each compaction's CSR as a fresh .sgr
	// snapshot at this path (written to a temp file and renamed into place,
	// so a crash never leaves a torn snapshot). Mutable only.
	CompactPath string
	// Backend executes the scoped prediction runs (default engine.Local{}).
	Backend engine.Backend
	// Config is the prediction configuration. Its K is the server's maximum
	// servable k: requests may ask for any k up to it. Sources must be
	// empty (the batcher owns the field).
	Config core.Config
	// BatchMax caps the distinct uncached vertices folded into one run
	// (default 4096), and the ids of one request. A tick takes every miss
	// already waiting up to the cap; a request that would cross it starts
	// the next tick.
	BatchMax int
	// CacheSize is the LRU capacity in vertices (default 65536).
	CacheSize int
	// RunTimeout bounds each backend run (0 = unbounded). On a
	// cancellation-aware backend (dist) the deadline closes the worker
	// connections, so a wedged fleet costs the batch an error instead of
	// wedging the server; in-memory backends ignore it.
	RunTimeout time.Duration
}

// Server answers online prediction queries over one loaded graph. Create
// with New, expose with Handler, stop with Close.
type Server struct {
	be      engine.Backend
	cfg     core.Config
	maxIDs  int
	runTO   time.Duration
	cache   *lruCache
	queue   chan *batchReq
	queued  atomic.Int64 // requests waiting to hand their misses to the collector
	stop    chan struct{}
	done    chan struct{}
	stats   serverStats
	started time.Time

	// The serving view. mu orders view transitions against cache writes:
	// a mutation swaps (view, epoch) and invalidates stale rows atomically,
	// and a finished batch fills the cache only while its epoch is still
	// current — a run that raced a mutation answers its own requests (they
	// were admitted against its view) but leaves no stale rows behind.
	mu    sync.Mutex
	view  graph.View
	epoch uint64
	nv    int // vertex count; fixed for the server's lifetime

	// Mutation state (nil/zero unless Options.Mutable).
	live        *graph.Live
	compactAt   int
	compactPath string
	compactMu   sync.Mutex  // serialises compaction work
	compacting  atomic.Bool // single-flight gate for the background trigger
}

// batchReq is one /v1/predict request's cache misses on their way through
// the collector, and the channel its tick's answer comes back on.
type batchReq struct {
	ids  []graph.VertexID
	resp chan batchResp
}

// batchResp is one tick's answer, shared by all of its requests: a row for
// every vertex the tick covered, or the run's error.
type batchResp struct {
	rows map[graph.VertexID][]core.Prediction
	err  error
}

// New validates opts and starts the server's collector goroutine.
func New(opts Options) (*Server, error) {
	if opts.Graph == nil {
		return nil, errors.New("serve: nil graph")
	}
	if opts.Backend == nil {
		opts.Backend = engine.Local{}
	}
	if len(opts.Config.Sources) != 0 {
		return nil, errors.New("serve: Config.Sources must be empty (scoping is per batch)")
	}
	cfg, err := opts.Config.Normalized()
	if err != nil {
		return nil, err
	}
	if opts.BatchMax <= 0 {
		opts.BatchMax = 4096
	}
	if opts.CacheSize <= 0 {
		opts.CacheSize = 65536
	}
	s := &Server{
		be:      opts.Backend,
		cfg:     cfg,
		maxIDs:  opts.BatchMax,
		runTO:   opts.RunTimeout,
		cache:   newLRU(opts.CacheSize),
		queue:   make(chan *batchReq),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		started: time.Now(),
		view:    opts.Graph,
		nv:      opts.Graph.NumVertices(),
	}
	if opts.Mutable {
		csr, ok := graph.AsCSR(opts.Graph)
		if !ok {
			return nil, errors.New("serve: mutable serving needs a compact CSR base (a *graph.Digraph, or a Delta with an empty overlay)")
		}
		if _, fleet := opts.Backend.(interface{ FleetInfo() engine.FleetInfo }); fleet {
			return nil, errors.New("serve: mutable serving is incompatible with a resident fleet backend (the fleet pins a frozen pack)")
		}
		// The frontier-aware invalidation walk runs over in-edges.
		csr.EnsureInEdges()
		s.live = graph.NewLive(csr)
		s.view = s.live.View()
		s.compactAt = opts.CompactAt
		s.compactPath = opts.CompactPath
	}
	go s.collector()
	return s, nil
}

// current returns the view a new batch (or info report) should run against,
// with its epoch.
func (s *Server) current() (graph.View, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view, s.epoch
}

// configFingerprint hashes the parts of a Config that determine a vertex's
// predictions, for /v1/info's config_fingerprint (FNV-1a over the printable
// form; the score is identified by name and alpha, the same pair the wire
// protocol ships).
func configFingerprint(cfg core.Config) uint64 {
	desc := fmt.Sprintf("%s|%g|%d|%d|%d|%d|%d|%d",
		cfg.Score.Name, cfg.Score.Alpha, cfg.K, cfg.KLocal, cfg.ThrGamma,
		int(cfg.Policy), cfg.Paths, cfg.Seed)
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(desc); i++ {
		h ^= uint64(desc[i])
		h *= prime
	}
	return h
}

// MaxK returns the largest k a request may ask for (the config's K).
func (s *Server) MaxK() int { return s.cfg.K }

// Close stops the collector; queued requests fail with a shutdown error.
func (s *Server) Close() {
	close(s.stop)
	<-s.done
}

// errShutdown is returned to requests caught mid-shutdown.
var errShutdown = errors.New("serve: server shutting down")

// collector is the micro-batching loop over cache misses: it blocks for the
// tick's first request, takes every request already waiting (up to BatchMax
// distinct vertices) without waiting for more, then answers the whole tick
// from one scoped run. The queue is unbuffered, so the requests that arrive
// while a run is in flight wait on it and form the next tick: a run in
// flight is the only batching signal, and an idle server runs a miss at
// once. A request whose ids would push the tick past BatchMax is carried
// into the next tick instead of over-growing this one.
func (s *Server) collector() {
	defer close(s.done)
	var carry *batchReq
	for {
		first := carry
		carry = nil
		if first == nil {
			select {
			case <-s.stop:
				return
			case first = <-s.queue:
			}
		}
		batch := []*batchReq{first}
		// A single request's ids always fit: the handler caps them at maxIDs.
		misses := make(map[graph.VertexID]bool)
		for _, v := range first.ids {
			misses[v] = true
		}
	gather:
		for len(misses) < s.maxIDs {
			select {
			case <-s.stop:
				for _, r := range batch {
					r.resp <- batchResp{err: errShutdown}
				}
				return
			case r := <-s.queue:
				grown := len(misses)
				for _, v := range r.ids {
					if !misses[v] {
						grown++
					}
				}
				if grown > s.maxIDs {
					carry = r // starts the next tick
					break gather
				}
				batch = append(batch, r)
				for _, v := range r.ids {
					misses[v] = true
				}
			default:
				break gather
			}
		}
		s.runBatch(batch, misses)
	}
}

// runBatch executes one tick: the misses another tick cached while they
// waited are read from the cache, and the rest run as one scoped prediction
// that fills it. Every request of the tick reads its rows from the one
// answer, so cache pressure (a tick larger than the LRU) can evict rows but
// never corrupt answers.
func (s *Server) runBatch(batch []*batchReq, misses map[graph.VertexID]bool) {
	resp := batchResp{rows: make(map[graph.VertexID][]core.Prediction, len(misses))}
	sources := make([]graph.VertexID, 0, len(misses))
	for v := range misses {
		if row, ok := s.cache.get(v); ok {
			resp.rows[v] = row
		} else {
			sources = append(sources, v)
		}
	}
	s.stats.observeBatch(len(sources) > 0)
	if len(sources) > 0 {
		resp.err = s.run(sources, resp.rows)
	}
	for _, r := range batch {
		r.resp <- resp
	}
}

// run predicts sources in one scoped run over the current view and adds
// their rows to rows and, while that view is still current, to the cache.
func (s *Server) run(sources []graph.VertexID, rows map[graph.VertexID][]core.Prediction) error {
	cfg := s.cfg
	cfg.Sources = sources
	ctx := context.Background()
	if s.runTO > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.runTO)
		defer cancel()
	}
	view, epoch := s.current()
	preds, rst, err := engine.PredictScoped(ctx, s.be, view, cfg)
	s.stats.observeRun(rst, err)
	if err != nil {
		return err
	}
	for i, v := range preds.Vertices {
		// Clone: the engine's rows alias large shared per-batch append
		// buffers, and a cached row must not pin a whole batch's worth of
		// memory. Empty results are kept too — "no recommendations" is as
		// expensive to recompute as a full answer.
		row := preds.Rows[i]
		rows[v] = append(make([]core.Prediction, 0, len(row)), row...)
	}
	// Fill the cache only while this run's view is still current: a mutation
	// that landed mid-run has already invalidated its dirty rows, and caching
	// results computed from the superseded view would re-poison them. The
	// tick's own requests are still answered from rows — they were admitted
	// against this view.
	s.mu.Lock()
	if s.epoch == epoch {
		for _, v := range preds.Vertices {
			s.cache.put(v, rows[v])
		}
	}
	s.mu.Unlock()
	return nil
}

// predict answers distinct ids and reports how many came from the cache,
// on failure too: those hits were served whether or not the misses' run
// succeeded. The cache is read here, once: a fully cached request is
// answered without the collector (and counts as one batch that ran nothing),
// and only the misses wait for a tick. Rows are capped at the server's K;
// the handler slices them to the request's k.
func (s *Server) predict(ids []graph.VertexID) (map[graph.VertexID][]core.Prediction, int, error) {
	select {
	case <-s.stop:
		return nil, 0, errShutdown
	default:
	}
	rows := make(map[graph.VertexID][]core.Prediction, len(ids))
	var misses []graph.VertexID
	for _, v := range ids {
		if row, ok := s.cache.get(v); ok {
			rows[v] = row
		} else {
			misses = append(misses, v)
		}
	}
	hits := len(ids) - len(misses)
	if len(misses) == 0 {
		s.stats.observeBatch(false)
		return rows, hits, nil
	}
	req := &batchReq{ids: misses, resp: make(chan batchResp, 1)}
	s.queued.Add(1)
	var err error
	select {
	case <-s.stop:
		err = errShutdown
	case s.queue <- req:
	}
	s.queued.Add(-1)
	if err != nil {
		return nil, hits, err
	}
	resp := <-req.resp
	if resp.err != nil {
		return nil, hits, resp.err
	}
	for _, v := range misses {
		rows[v] = resp.rows[v]
	}
	return rows, hits, nil
}

// ---- HTTP layer ----

// PredictRequest is the /v1/predict body.
type PredictRequest struct {
	// IDs are the vertices to predict for (1 to BatchMax per request).
	IDs []uint32 `json:"ids"`
	// K is the predictions wanted per vertex (0 = the server's maximum; at
	// most the server's maximum).
	K int `json:"k"`
}

// PredictionJSON is one recommended edge target.
type PredictionJSON struct {
	ID    uint32  `json:"id"`
	Score float64 `json:"score"`
}

// VertexResult is one queried vertex's answer. Predictions is empty (not
// null) when the vertex has no recommendations.
type VertexResult struct {
	ID          uint32           `json:"id"`
	Predictions []PredictionJSON `json:"predictions"`
}

// PredictResponse is the /v1/predict reply. Results are in request order
// (first occurrence, for duplicated ids).
type PredictResponse struct {
	Results   []VertexResult `json:"results"`
	CacheHits int            `json:"cache_hits"`
	ServedMs  float64        `json:"served_ms"`
}

// HealthResponse is the /healthz reply.
type HealthResponse struct {
	Status string `json:"status"`
	// Engine names the backend as InfoResponse.Engine does.
	Engine    string  `json:"engine"`
	Vertices  int     `json:"vertices"`
	Edges     int     `json:"edges"`
	MaxK      int     `json:"max_k"`
	UptimeSec float64 `json:"uptime_sec"`
}

// InfoResponse is the /v1/info reply: what exactly this instance serves —
// the graph's shape, the backend, the fingerprint of the prediction config
// (two front-ends answering interchangeably must agree on it) and, when the
// backend is a resident fleet, the fleet topology and pack fingerprint.
type InfoResponse struct {
	// Engine is the backend's name, and on a distributed deployment it names
	// the mode: "fleet" is a standing fleet, cut once at start-up; "dist" is
	// the one-shot form a mutable server runs, which cuts the whole current
	// view and ships it to the workers afresh on every batch run — the
	// documented cost of following mutations on a distributed backend.
	Engine   string `json:"engine"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	MaxK     int    `json:"max_k"`
	Score    string `json:"score"`
	// ConfigFingerprint is the hex form of the prediction config's hash.
	ConfigFingerprint string `json:"config_fingerprint"`
	// Mutable reports whether this instance accepts POST /v1/edges.
	Mutable bool `json:"mutable,omitempty"`
	// Epoch is the serving view's version (mutable instances only; bumps on
	// every mutation batch and every compaction).
	Epoch uint64 `json:"epoch,omitempty"`
	// OverlayRows is the number of vertices with pending mutations
	// (mutable instances only).
	OverlayRows int `json:"overlay_rows,omitempty"`
	// Fleet is present only when the backend is a resident fleet.
	Fleet     *FleetInfoJSON `json:"fleet,omitempty"`
	UptimeSec float64        `json:"uptime_sec"`
}

// FleetInfoJSON is the resident fleet's topology as served by /v1/info.
type FleetInfoJSON struct {
	Shards   int `json:"shards"`
	Replicas int `json:"replicas"`
	Workers  int `json:"workers"`
	// Fingerprint is the hex fleet fingerprint (graph + cut parameters) the
	// attach handshake verifies.
	Fingerprint string `json:"fingerprint"`
}

// Handler returns the server's HTTP mux: POST /v1/predict, POST /v1/edges,
// POST /v1/compact, GET /v1/info, GET /healthz, GET /statsz. Every error —
// any endpoint, any status — is a JSON body of the shape
// {"error":{"code":"...","message":"..."}}.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/edges", s.handleEdges)
	mux.HandleFunc("/v1/compact", s.handleCompact)
	mux.HandleFunc("/v1/info", s.handleInfo)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
	})
	return mux
}

// EdgesRequest is the /v1/edges body: edge batches as [src, dst] pairs.
// Adds are applied before removes (graph.Delta semantics); adding an
// existing edge or removing an absent one is a no-op, self-loops are
// ignored, and endpoints must lie inside the loaded vertex set — mutation
// cannot grow the graph.
type EdgesRequest struct {
	Add    [][]uint32 `json:"add"`
	Remove [][]uint32 `json:"remove"`
}

// EdgesResponse is the /v1/edges reply: the new view's epoch and shape,
// plus how much cached state the batch cost.
type EdgesResponse struct {
	// Epoch is the published view's version after this batch.
	Epoch uint64 `json:"epoch"`
	// Edges is the view's edge count after this batch.
	Edges int `json:"edges"`
	// Invalidated is how many cached rows the batch's dirty frontier
	// covered — the rows that will be recomputed on next query.
	Invalidated int `json:"invalidated"`
	// OverlayRows is the number of vertices with pending mutations (the
	// quantity auto-compaction watches).
	OverlayRows int `json:"overlay_rows"`
}

// CompactResponse is the /v1/compact reply.
type CompactResponse struct {
	// Epoch is the compacted view's version.
	Epoch uint64 `json:"epoch"`
	// Edges is the compacted CSR's edge count.
	Edges int `json:"edges"`
	// Path is the snapshot file the compaction persisted, when configured.
	Path string `json:"path,omitempty"`
}

// parseEdgePairs converts [src, dst] pairs into edges, validating shape and
// range (n is the vertex count).
func parseEdgePairs(pairs [][]uint32, n int, field string) ([]graph.Edge, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	edges := make([]graph.Edge, len(pairs))
	for i, p := range pairs {
		if len(p) != 2 {
			return nil, fmt.Errorf("%s[%d]: want a [src, dst] pair, got %d elements", field, i, len(p))
		}
		if int(p[0]) >= n || int(p[1]) >= n {
			return nil, fmt.Errorf("%s[%d]: edge (%d,%d) outside [0,%d)", field, i, p[0], p[1], n)
		}
		edges[i] = graph.Edge{Src: graph.VertexID(p[0]), Dst: graph.VertexID(p[1])}
	}
	return edges, nil
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.live == nil {
		httpError(w, http.StatusBadRequest, "this server is frozen; start it with mutation enabled (Options.Mutable / -mutable)")
		return
	}
	var req EdgesRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	add, err := parseEdgePairs(req.Add, s.nv, "add")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	remove, err := parseEdgePairs(req.Remove, s.nv, "remove")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.applyEdges(w, add, remove)
}

// applyEdges runs one validated mutation batch: publish the new view, walk
// the reverse frontier of the touched sources, and drop exactly the cached
// rows that walk covers — all under mu, so a concurrent batch fill cannot
// interleave a stale write between the swap and the invalidation.
func (s *Server) applyEdges(w http.ResponseWriter, add, remove []graph.Edge) {
	s.mu.Lock()
	nd, err := s.live.Apply(add, remove)
	if err != nil {
		s.mu.Unlock()
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	dirty := core.DirtySources(nd, add, remove, s.cfg.Paths)
	invalidated := s.cache.invalidate(dirty)
	s.view, s.epoch = nd, nd.Epoch()
	overlay := nd.OverlayRows()
	s.mu.Unlock()

	s.stats.observeMutation(len(add), len(remove), invalidated, nd.Epoch())
	if s.compactAt > 0 && overlay >= s.compactAt {
		s.triggerCompact()
	}
	writeJSON(w, http.StatusOK, EdgesResponse{
		Epoch:       nd.Epoch(),
		Edges:       nd.NumEdges(),
		Invalidated: invalidated,
		OverlayRows: overlay,
	})
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.live == nil {
		httpError(w, http.StatusBadRequest, "this server is frozen; start it with mutation enabled (Options.Mutable / -mutable)")
		return
	}
	nd, err := s.compactNow()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "compact: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, CompactResponse{
		Epoch: nd.Epoch(),
		Edges: nd.NumEdges(),
		Path:  s.compactPath,
	})
}

// triggerCompact starts a background compaction unless one is already in
// flight (single-flight: overlapping triggers coalesce).
func (s *Server) triggerCompact() {
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.compacting.Store(false)
		// compactNow records any persistence failure on /statsz; the
		// in-memory compaction itself cannot fail.
		_, _ = s.compactNow()
	}()
}

// compactNow folds the live overlay into a fresh CSR, persists it when
// configured, and publishes the compacted view. Readers never stall: the
// compacted view is bit-identical to the overlay it replaces, so the cache
// survives compaction untouched.
func (s *Server) compactNow() (*graph.Delta, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	nd := s.live.Compact()
	var err error
	if s.compactPath != "" {
		err = writeSnapshotAtomic(s.compactPath, nd.Base())
	}
	s.mu.Lock()
	// A mutation may have landed on the compacted base already (its epoch
	// is newer); never roll the serving view backwards.
	if nd.Epoch() > s.epoch {
		s.view, s.epoch = nd, nd.Epoch()
	}
	s.mu.Unlock()
	s.stats.observeCompaction(nd.Epoch())
	if err != nil {
		s.stats.observeCompactError()
	}
	return nd, err
}

// writeSnapshotAtomic writes g as a .sgr snapshot via a temp file in the
// target directory plus an atomic rename, so a crash mid-write can never
// leave a torn snapshot at path. The temp file is synced before the rename,
// so the name never points at data still in the page cache, and the
// directory after it, so the rename itself survives a power loss.
func writeSnapshotAtomic(path string, g *graph.Digraph) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := graph.WriteSnapshot(f, g); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir flushes a directory's entries, making a rename into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	start := time.Now()
	var req PredictRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if len(req.IDs) == 0 {
		httpError(w, http.StatusBadRequest, "ids is empty")
		return
	}
	if len(req.IDs) > s.maxIDs {
		httpError(w, http.StatusBadRequest, "%d ids exceeds the per-request maximum %d", len(req.IDs), s.maxIDs)
		return
	}
	k := req.K
	switch {
	case k == 0:
		k = s.cfg.K
	case k < 0 || k > s.cfg.K:
		httpError(w, http.StatusBadRequest, "k=%d outside [1,%d] (the server computes top-%d)", k, s.cfg.K, s.cfg.K)
		return
	}
	// ids holds each vertex once, in the order of its first occurrence.
	ids := make([]graph.VertexID, 0, len(req.IDs))
	seen := make(map[graph.VertexID]bool, len(req.IDs))
	for _, id := range req.IDs {
		if int(id) >= s.nv {
			httpError(w, http.StatusBadRequest, "vertex %d outside [0,%d)", id, s.nv)
			return
		}
		if v := graph.VertexID(id); !seen[v] {
			seen[v] = true
			ids = append(ids, v)
		}
	}

	rows, hits, err := s.predict(ids)
	lat := time.Since(start)
	if err != nil {
		s.stats.observe(lat, len(req.IDs), len(ids), hits, true)
		httpError(w, http.StatusInternalServerError, "predict: %v", err)
		return
	}
	resp := PredictResponse{
		Results:   make([]VertexResult, 0, len(ids)),
		CacheHits: hits,
		ServedMs:  float64(lat.Microseconds()) / 1000,
	}
	for _, v := range ids {
		row := rows[v]
		vr := VertexResult{ID: uint32(v), Predictions: make([]PredictionJSON, 0, min(k, len(row)))}
		for i, p := range row {
			if i == k {
				break
			}
			vr.Predictions = append(vr.Predictions, PredictionJSON{ID: uint32(p.Vertex), Score: p.Score})
		}
		resp.Results = append(resp.Results, vr)
	}
	s.stats.observe(lat, len(req.IDs), len(ids), hits, false)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	view, epoch := s.current()
	info := InfoResponse{
		Engine:            s.be.Name(),
		Vertices:          view.NumVertices(),
		Edges:             view.NumEdges(),
		MaxK:              s.cfg.K,
		Score:             s.cfg.Score.Name,
		ConfigFingerprint: fmt.Sprintf("%016x", configFingerprint(s.cfg)),
		Mutable:           s.live != nil,
		Epoch:             epoch,
		UptimeSec:         time.Since(s.started).Seconds(),
	}
	if d, ok := view.(*graph.Delta); ok {
		info.OverlayRows = d.OverlayRows()
	}
	if fb, ok := s.be.(interface{ FleetInfo() engine.FleetInfo }); ok {
		fi := fb.FleetInfo()
		info.Fleet = &FleetInfoJSON{
			Shards:      fi.Shards,
			Replicas:    fi.Replicas,
			Workers:     fi.Workers,
			Fingerprint: fmt.Sprintf("%016x", fi.Fingerprint),
		}
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	// A partition with zero live replicas means queries routed to it cannot
	// be answered: report 503 so load balancers drain this instance until a
	// run completes against a recovered fleet.
	status, code := "ok", http.StatusOK
	if s.stats.isDegraded() {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	view, _ := s.current()
	writeJSON(w, code, HealthResponse{
		Status:    status,
		Engine:    s.be.Name(),
		Vertices:  view.NumVertices(),
		Edges:     view.NumEdges(),
		MaxK:      s.cfg.K,
		UptimeSec: time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	snap := s.stats.snapshot()
	snap.Engine = s.be.Name()
	snap.CacheSize = s.cache.len()
	snap.CacheCap = s.cache.cap
	snap.Queued = s.queued.Load()
	snap.UptimeSec = time.Since(s.started).Seconds()
	writeJSON(w, http.StatusOK, snap)
}

// errorResponse is the uniform error shape of every endpoint:
// {"error":{"code":"...","message":"..."}}. The code is a small stable
// vocabulary derived from the status, so clients can switch on it without
// parsing messages.
type errorResponse struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: errorBody{
		Code:    errorCode(status),
		Message: fmt.Sprintf(format, args...),
	}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"snaple/internal/engine"
	"snaple/internal/graph"
	"snaple/internal/randx"
	"snaple/internal/serve"
)

// metric is one reported number; n is how many samples it summarises. The
// exported fields are what the result line and layers.json carry.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// result is one workload's run.
type result struct {
	workload          string
	attempted, failed int
	firstErr          error
	e2e               map[string]metric
	layer             map[string]metric // loadgen.* and serve.* observed on this run
	notes             []string          // validity warnings, printed with the metrics
}

// workload is a request workload: processes to start, an op stream, and
// the constants of its load shape.
type workload struct {
	name string
	// rate is the open-loop arrival rate in requests per second, fixed here
	// so that every commit is offered the same load and never tuned at run
	// time. Each keeps the front-end's single collector 40-50% busy on the
	// 2-core sandbox — about half of what it sustains open loop, which is
	// less than half the closed-loop figure because closed-loop clients
	// arrive together and share runs. Nearer saturation, queueing turns a
	// 5% slower machine into a 25% slower median.
	rate float64
	// tailPct is the percentile tail_ms reports: the highest with enough
	// samples beyond it at this rate and run length that one scheduling
	// hiccup of the sandbox (~200 ms) cannot set it.
	tailPct float64
	// sloMs is the latency limit behind loadgen.slo_miss_ratio.
	sloMs float64
	// coldStarts is how many times set-up is timed (median reported);
	// measuredInstances of the starts go on to take load.
	coldStarts int
	// prepare makes workload-specific input files (not timed as set-up).
	prepare func(h *suite) error
	// start brings the system up and returns the front-end plus every
	// process under test.
	start  func(h *suite) (front *proc, all []*proc, err error)
	stream streamFunc
}

// streamFunc returns one measured instance's op stream, the reply check,
// and an optional check that runs after the instance's load has quiesced,
// returning (attempted, failed).
type streamFunc func(h *suite, instance int, client *http.Client, base string) (next func() op, verify func(op, []byte) error, final func() (int, int, error))

var workloads = []workload{
	{
		name: "serve-cold", rate: 90, tailPct: 0.95, sloMs: 50, coldStarts: 15,
		start: func(h *suite) (*proc, []*proc, error) {
			p, err := h.ps.spawn(filepath.Join(h.bin, "snaple-serve"), "serving ", nil,
				"-in", h.in.sgr, "-listen", "127.0.0.1:0")
			return p, []*proc{p}, err
		},
		stream: uniformStream(2, 1),
	},
	{
		name: "serve-live", rate: 100, tailPct: 0.90, sloMs: 50, coldStarts: 11,
		start: func(h *suite) (*proc, []*proc, error) {
			p, err := h.ps.spawn(filepath.Join(h.bin, "snaple-serve"), "serving ", nil,
				"-in", h.in.sgr, "-listen", "127.0.0.1:0", "-mutable", "-compact-at", liveCompactAt)
			return p, []*proc{p}, err
		},
		stream: liveStream,
	},
	{
		name: "fleet-scoped", rate: 9, tailPct: 0.90, sloMs: 250, coldStarts: 5,
		prepare: packShards,
		start:   startFleet,
		stream:  uniformStream(4, 8),
	},
}

const fleetShards = 2

func packShards(h *suite) error {
	out, err := exec.Command(filepath.Join(h.bin, "snaple"), "pack",
		"-in", h.in.sgr, "-out", filepath.Join(h.in.dir, "F.sgr"), "-shards", fmt.Sprint(fleetShards)).CombinedOutput()
	if err != nil {
		return fmt.Errorf("snaple pack: %v\n%s", err, out)
	}
	return nil
}

func startFleet(h *suite) (*proc, []*proc, error) {
	var all []*proc
	var addrs []string
	for i := range fleetShards {
		w, err := h.ps.spawn(filepath.Join(h.bin, "snaple-worker"), "listening ", nil,
			"-shard", fmt.Sprintf("%s.%d", filepath.Join(h.in.dir, "F.sgr"), i), "-listen", "127.0.0.1:0", "-quiet")
		if err != nil {
			return nil, all, err
		}
		all = append(all, w)
		addrs = append(addrs, w.addr)
	}
	front, err := h.ps.spawn(filepath.Join(h.bin, "snaple-serve"), "serving ", nil,
		"-in", h.in.sgr, "-manifest", filepath.Join(h.in.dir, "F.sgr.manifest"),
		"-addrs", strings.Join(addrs, ","), "-listen", "127.0.0.1:0")
	if err != nil {
		return nil, all, err
	}
	return front, append(all, front), nil
}

func predictBody(ids []uint32) []byte {
	b := []byte(`{"ids":[`)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%d", id)
	}
	return fmt.Appendf(b, `],"k":%d}`, requestK)
}

// verifyRows checks a /v1/predict reply: one result per distinct queried
// id, in request order, and each row equal to want(id) when want is set.
// Without an oracle (a live graph mid-mutation) only the shape is checked:
// at most k predictions, scores descending.
func verifyRows(o op, body []byte, want func(id uint32) uint64) error {
	var resp serve.PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("predict reply: %w", err)
	}
	seen := make(map[uint32]bool, len(o.ids))
	i := 0
	for _, id := range o.ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		if i >= len(resp.Results) || resp.Results[i].ID != id {
			return fmt.Errorf("predict reply: result %d is not vertex %d", i, id)
		}
		row := resp.Results[i].Predictions
		i++
		if len(row) > requestK {
			return fmt.Errorf("vertex %d: %d predictions for k=%d", id, len(row), requestK)
		}
		h := newRowHasher()
		for j, p := range row {
			if j > 0 && p.Score > row[j-1].Score {
				return fmt.Errorf("vertex %d: scores not descending", id)
			}
			h.add(p.ID, p.Score)
		}
		if want != nil && uint64(h) != want(id) {
			return fmt.Errorf("vertex %d: row differs from the Serial oracle", id)
		}
	}
	if i != len(resp.Results) {
		return fmt.Errorf("predict reply: %d results for %d distinct ids", len(resp.Results), i)
	}
	return nil
}

// uniformStream sends idsPerRequest uniform-random ids per request and
// holds every reply to the oracle. serve-cold sends 1: 200k ids against a
// 65 536-row LRU over a few hundred requests, so the hit ratio is ~0.
// fleet-scoped sends 8, so a query's closure spans both shards.
func uniformStream(streamID uint64, idsPerRequest int) streamFunc {
	return func(h *suite, instance int, _ *http.Client, _ string) (func() op, func(op, []byte) error, func() (int, int, error)) {
		in := h.in
		r := randx.NewRand(in.seed, streamID, uint64(instance))
		next := func() op {
			ids := make([]uint32, idsPerRequest)
			for i := range ids {
				ids[i] = in.perm[r.Intn(len(in.perm))]
			}
			return op{path: "/v1/predict", body: predictBody(ids), ids: ids}
		}
		verify := func(o op, body []byte) error {
			return verifyRows(o, body, func(id uint32) uint64 { return in.oracleReq[id] })
		}
		return next, verify, nil
	}
}

const (
	liveWriteEvery = 20 // every 20th op is a write
	liveAdds       = 8
	liveRemoves    = 2
	liveCheckIDs   = 256 // rows re-queried against Serial after quiescing
	// liveCompactAt: a batch nets ~6 overlay rows (8 added sources, 2 rows
	// emptied again by the removes), so the ~16 writes of one instance's
	// open-loop phase leave ~100 rows: 60 puts a compaction inside each.
	liveCompactAt = "60"
	// liveZipfS is the read skew. A batch dirties the reverse 2-hop closure
	// of its sources, ~1.3% of all vertices, so a cached row survives ~75
	// batches = ~1500 ops and only ids re-read inside that window stay hits.
	// At s=1.1 those carry 58% of the reads, and with hits also queueing
	// behind the collector's runs half the requests are fast and half slow:
	// the median sits on the edge between the two modes and swings 25% from
	// run to run. At 1.4 ~85% are hits, the median is firmly the hit path
	// and the p90 firmly the miss path.
	liveZipfS = 1.4
)

type mutation struct{ add, remove []graph.Edge }

// liveStream: Zipf(liveZipfS) reads through the permutation, so the hot ids are
// not the hubs, and every 20th op a mutation batch. Removes take edges the
// stream itself added two batches earlier — long acknowledged by then, so
// the server applies them in the order the bench's own log records.
func liveStream(h *suite, instance int, client *http.Client, base string) (func() op, func(op, []byte) error, func() (int, int, error)) {
	in := h.in
	n := len(in.perm)
	r := randx.NewRand(in.seed, 3, uint64(instance))
	zipf := rand.NewZipf(r, liveZipfS, 1, uint64(n-1))
	var log []mutation
	count := 0
	next := func() op {
		count++
		if count%liveWriteEvery != 0 {
			ids := []uint32{in.perm[zipf.Uint64()]}
			return op{path: "/v1/predict", body: predictBody(ids), ids: ids}
		}
		m := mutation{add: randomAdds(r, in.perm)}
		if len(log) >= 2 {
			m.remove = log[len(log)-2].add[:liveRemoves]
		}
		log = append(log, m)
		body, err := json.Marshal(serve.EdgesRequest{Add: edgePairs(m.add), Remove: edgePairs(m.remove)})
		if err != nil {
			panic(err) // plain slices of integers
		}
		return op{write: true, path: "/v1/edges", body: body}
	}
	verify := func(o op, body []byte) error {
		if o.write {
			var resp serve.EdgesResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return fmt.Errorf("edges reply: %w", err)
			}
			if resp.Epoch == 0 {
				return fmt.Errorf("edges reply: epoch 0 after a mutation")
			}
			return nil
		}
		return verifyRows(o, body, nil)
	}
	// final replays the bench's own mutation log into a Delta over the
	// generated graph and holds the quiesced server to Serial on that view:
	// the sources the last batches touched plus the hottest ids.
	final := func() (int, int, error) {
		view := graph.NewDelta(in.g)
		for _, m := range log {
			var err error
			if view, err = view.Apply(m.add, m.remove); err != nil {
				return 0, 0, fmt.Errorf("replaying the mutation log: %w", err)
			}
		}
		picked := make(map[uint32]bool)
		var ids []uint32
		pick := func(id uint32) {
			if !picked[id] && len(ids) < liveCheckIDs {
				picked[id] = true
				ids = append(ids, id)
			}
		}
		for i := len(log) - 1; i >= 0 && len(ids) < liveCheckIDs/2; i-- {
			for _, e := range log[i].add {
				pick(uint32(e.Src))
			}
		}
		for _, id := range in.perm {
			pick(id)
		}
		cfg := in.cfg
		for _, id := range ids {
			cfg.Sources = append(cfg.Sources, graph.VertexID(id))
		}
		preds, _, err := engine.Serial{}.Predict(view, cfg)
		if err != nil {
			return 0, 0, fmt.Errorf("oracle over the mutated view: %w", err)
		}
		lg := &loadgen{client: client, base: base}
		failed := 0
		var firstErr error
		for chunk := range slices.Chunk(ids, 64) {
			o := op{path: "/v1/predict", body: predictBody(chunk), ids: chunk}
			body, err := lg.send(context.Background(), o)
			if err == nil {
				err = verifyRows(o, body, func(id uint32) uint64 { return hashRow(preds[id], requestK) })
			}
			if err != nil {
				failed += len(chunk)
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		return len(ids), failed, firstErr
	}
	return next, verify, final
}

// randomAdds draws one mutation batch's liveAdds edges between uniform
// vertices.
func randomAdds(r *rand.Rand, perm []uint32) []graph.Edge {
	var add []graph.Edge
	for len(add) < liveAdds {
		e := graph.Edge{Src: graph.VertexID(perm[r.Intn(len(perm))]), Dst: graph.VertexID(perm[r.Intn(len(perm))])}
		if e.Src != e.Dst {
			add = append(add, e)
		}
	}
	return add
}

func edgePairs(edges []graph.Edge) [][]uint32 {
	pairs := make([][]uint32, len(edges))
	for i, e := range edges {
		pairs[i] = []uint32{uint32(e.Src), uint32(e.Dst)}
	}
	return pairs
}

// statsz fetches the front-end's counters.
func statsz(client *http.Client, base string) (serve.Snapshot, error) {
	var snap serve.Snapshot
	resp, err := client.Get(base + "/statsz")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("statsz: status %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// measuredInstances is how many of a workload's cold starts carry load,
// each for an equal share of the measured seconds, their samples pooled.
// The same binary on the same inputs runs 10-20% faster or slower from one
// process start to the next on the shared sandbox (where the kernel put its
// memory, what the neighbours are doing) and holds that pace for its
// lifetime, so one 20 s instance repeats no better than one 7 s instance;
// four 5 s instances do.
const measuredInstances = 4

// Each instance splits its share into an untimed warm-up (caches fill, lazy
// set-up finishes), the open-loop phase that gives the latency metrics, and
// the closed-loop phase that gives capacity.
const (
	warmShare = 0.10
	openShare = 0.60
)

// serveCounters is the part of /statsz the per-layer metrics use, summed
// over the measured instances.
type serveCounters struct {
	hits, misses, runs, batches, invalidated, mutations, errors int64
	compactions                                                 int64 // inside the open-loop phases only
}

// takesLoad spreads k measured instances evenly over n cold starts (the
// last start is always one), so that the set-up samples span the whole run
// instead of one half-second of it.
func takesLoad(i, n, k int) bool {
	return (i+1)*k/n > i*k/n
}

func (c *serveCounters) add(before, mid, after serve.Snapshot) {
	c.hits += after.CacheHits - before.CacheHits
	c.misses += after.CacheMisses - before.CacheMisses
	c.runs += after.PredictRuns - before.PredictRuns
	c.batches += after.Batches - before.Batches
	c.invalidated += after.Invalidated - before.Invalidated
	c.mutations += after.Mutations - before.Mutations
	c.errors += after.Errors - before.Errors
	c.compactions += mid.Compactions - before.Compactions
}

func (h *suite) runWorkload(ctx context.Context, w workload, seconds float64, tr *tracer) (*result, error) {
	if w.prepare != nil {
		if err := w.prepare(h); err != nil {
			return nil, err
		}
	}
	client := newClient()
	defer client.CloseIdleConnections()

	share := time.Duration(seconds / measuredInstances * float64(time.Second))
	warm := time.Duration(float64(share) * warmShare)
	open := time.Duration(float64(share) * openShare)

	res := &result{workload: w.name, e2e: map[string]metric{}, layer: map[string]metric{}}
	var (
		setups, rss []float64
		op, cl      phase // pooled over the measured instances
		counters    serveCounters
	)
	// Set-up is spawn -> /healthz 200 (for the fleet: shards attached), timed
	// on every cold start; measuredInstances of the starts then take load.
	instance := 0
	for i := range w.coldStarts {
		start := time.Now()
		front, all, err := w.start(h)
		if err != nil {
			return nil, fmt.Errorf("%s: start %d: %w", w.name, i, err)
		}
		if err := waitHealthy(client, front.addr); err != nil {
			return nil, fmt.Errorf("%s: %w\n%s", w.name, err, front.stderr.String())
		}
		setups = append(setups, time.Since(start).Seconds())

		if takesLoad(i, w.coldStarts, measuredInstances) {
			instance++
			base := "http://" + front.addr
			next, verify, final := w.stream(h, instance, client, base)
			lg := &loadgen{client: client, base: base, next: next, verify: verify}
			lg.run(ctx, 0, warm)
			before, err := statsz(client, base)
			if err != nil {
				return nil, err
			}
			lg.tr = tr
			op.add(lg.run(ctx, w.rate, open))
			mid, err := statsz(client, base)
			if err != nil {
				return nil, err
			}
			cl.add(lg.run(ctx, 0, share-warm-open))
			after, err := statsz(client, base)
			if err != nil {
				return nil, err
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			counters.add(before, mid, after)
			if final != nil {
				a, f, err := final()
				if a == 0 && err != nil {
					return nil, err
				}
				res.attempted += a
				res.failed += f
				if res.firstErr == nil {
					res.firstErr = err
				}
			}
			sum := 0.0
			for _, p := range all {
				mb, err := p.peakRSSMB()
				if err != nil {
					return nil, err
				}
				sum += mb
			}
			rss = append(rss, sum)
		}
		for _, p := range all {
			p.kill()
		}
		client.CloseIdleConnections()
	}

	res.attempted += op.sent + cl.sent
	res.failed += op.failed + cl.failed
	for _, err := range []error{op.firstErr, cl.firstErr} {
		if res.firstErr == nil {
			res.firstErr = err
		}
	}

	tailV, tailP := tail(op.reads, w.tailPct)
	if tailP != w.tailPct {
		res.notes = append(res.notes, fmt.Sprintf("tail_ms is p%.0f, not p%.0f: only %d open-loop reads", tailP*100, w.tailPct*100, len(op.reads)))
	}
	done := len(cl.reads) + len(cl.writes)
	res.e2e["setup_s"] = metric{quantile(setups, 0.5), "s", len(setups)}
	res.e2e["p50_ms"] = metric{quantile(op.reads, 0.5), "ms", len(op.reads)}
	res.e2e["tail_ms"] = metric{tailV, "ms", len(op.reads)}
	res.e2e["ops_per_s"] = metric{float64(done) / cl.elapsed.Seconds(), "1/s", done}
	res.e2e["peak_rss_mb"] = metric{quantile(rss, 0.5), "MB", len(rss)}

	// loadgen: the validity of every latency above.
	lateP99 := quantile(op.late, 0.99)
	missed := op.failed
	for _, l := range op.reads {
		if l > w.sloMs {
			missed++
		}
	}
	L := res.layer
	L["loadgen.sent"] = metric{float64(op.sent + cl.sent), "count", 1}
	L["loadgen.ok"] = metric{float64(op.sent + cl.sent - op.failed - cl.failed), "count", 1}
	L["loadgen.failed"] = metric{float64(op.failed + cl.failed), "count", 1}
	L["loadgen.late_p99_ms"] = metric{lateP99, "ms", len(op.late)}
	L["loadgen.backlog_max"] = metric{float64(op.backlogMax), "count", 1}
	L["loadgen.slo_miss_ratio"] = metric{ratio(float64(missed), float64(op.sent)), "ratio", op.sent}
	L["loadgen.open_elapsed_s"] = metric{op.elapsed.Seconds(), "s", measuredInstances}
	L["loadgen.write_p50_ms"] = metric{quantile(op.writes, 0.5), "ms", len(op.writes)}
	wt, _ := tail(op.writes, 0.95)
	L["loadgen.write_tail_ms"] = metric{wt, "ms", len(op.writes)}
	if limit := w.sloMs / 10; lateP99 > limit {
		res.notes = append(res.notes, fmt.Sprintf("INVALID: the generator itself ran late (late_p99_ms %.3f > %g): latencies overstate the server", lateP99, limit))
	}
	if over := op.elapsed - measuredInstances*open; over > measuredInstances*open/20 {
		res.notes = append(res.notes, fmt.Sprintf("INVALID: the open-loop phases overran by %v: the offered rate exceeds capacity and the backlog grew", over.Round(time.Millisecond)))
	}

	// serve: /statsz deltas over the measured phases.
	c := counters
	el := op.elapsed.Seconds() + cl.elapsed.Seconds()
	L["serve.cache_hit_ratio"] = metric{ratio(float64(c.hits), float64(c.hits+c.misses)), "ratio", int(c.hits + c.misses)}
	L["serve.ids_per_run"] = metric{ratio(float64(c.misses), float64(c.runs)), "count", int(c.runs)}
	L["serve.runs_per_s"] = metric{float64(c.runs) / el, "1/s", int(c.runs)}
	L["serve.batches_per_s"] = metric{float64(c.batches) / el, "1/s", int(c.batches)}
	L["serve.invalidated_per_write"] = metric{ratio(float64(c.invalidated), float64(c.mutations)), "count", int(c.mutations)}
	L["serve.compactions"] = metric{float64(c.compactions), "count", measuredInstances}
	L["serve.errors"] = metric{float64(c.errors), "count", measuredInstances}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

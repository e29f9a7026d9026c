package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"snaple/internal/core"
	"snaple/internal/graph"
)

// Local runs Algorithm 2 directly over the shared-memory CSR with goroutine
// sharding over vertex ranges: no partitioning, no replication, no cost
// accounting — just the three scoring steps at memory speed.
//
// Each step materialises its per-vertex output in a flat core.Arena — one
// offsets table plus one shared backing array, the same layout as the CSR
// itself — built with a count pass, a serial prefix sum, and a fill pass
// (arena.go documents the protocol). Together with per-worker scratch
// buffers (core.Scratch) this makes the steady-state loop allocation-free
// per vertex: a full prediction run costs two allocations per step instead
// of one per vertex, which on billion-edge graphs is the difference between
// a GC tracking dozens of objects and hundreds of millions. A query-scoped
// run restricts every pass to its step's frontier set and, while that set
// is a small share of the graph, builds the arenas rank-indexed over it, so
// the run allocates and touches O(closure) (core.NewStepArena).
//
// Workers claim vertex chunks off a shared atomic counter. Chunk boundaries
// are degree-aware: each chunk covers at most chunkVerts vertices and
// roughly chunkEdges out-edges, so one hub vertex cannot serialize a worker
// behind a fixed-width range on power-law graphs.
//
// Results are bit-identical to core.ReferenceSnaple for every worker count:
// all draws are hash-keyed and all folds order-independent (see steps.go in
// internal/core), and every vertex's output is written by exactly one
// worker.
type Local struct {
	// Workers bounds the goroutines per step; 0 means GOMAXPROCS.
	Workers int
}

// Name implements Backend.
func (Local) Name() string { return "local" }

const (
	// chunkVerts caps the vertices per claimed chunk — small enough to
	// balance sparse regions, large enough to amortise the atomic.
	chunkVerts = 256
	// chunkEdges caps (approximately) the adjacency mass per chunk, so a
	// chunk holding a hub is cut short and its neighbours spread over other
	// workers.
	chunkEdges = 4096
	// minParallelChunks is the smallest pass worth fanning out: below it
	// the spawn/wake round of a goroutine team costs more than the pass.
	// Measured on the bench graph (2 cores, PredictScoped p50): a 1-source
	// run — five passes of one to three chunks over a ~170-vertex closure —
	// takes 0.26 ms when every multi-chunk pass fans out, 0.23 ms with
	// passes under 4 chunks inline (0.20 ms at Workers: 1); 16- and
	// 256-source runs do not notice, their small passes being one chunk and
	// their large ones dozens. The price is the band in between: at ~32
	// sources a two-chunk relay pass now runs on one core (+8%).
	minParallelChunks = 4
)

// Predict implements Backend: PredictScoped scattered into the |V|-long
// table the contract promises. A scoped run costs its closure, the table
// n·24 B.
func (l Local) Predict(g graph.View, cfg core.Config) (core.Predictions, Stats, error) {
	return dense(l, g, cfg)
}

// PredictScoped implements ScopedBackend. Nothing a scoped run allocates or
// touches is sized by the graph (until the closure is a sizeable share of
// it; see core.NewStepArena). The run has no remote side to abandon, so ctx
// is ignored.
func (l Local) PredictScoped(_ context.Context, g graph.View, cfg core.Config) (core.ScopedPredictions, Stats, error) {
	m := startMeter()
	f, rows, st, err := l.run(g, cfg)
	m.stop(&st, g)
	sp := core.ScopedPredictions{Rows: rows}
	if f != nil {
		sp.Vertices = f.Pred.Members()
	}
	return sp, st, err
}

// run executes Algorithm 2 and returns one prediction row per position of
// the final step's vertex sequence: per vertex on a full run (nil
// frontier), per member of f.Pred on a scoped one.
func (l Local) run(g graph.View, cfg core.Config) (*core.Frontier, [][]core.Prediction, Stats, error) {
	workers := l.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	st := Stats{Engine: "local", Workers: workers}

	r, err := core.NewStepRunner(g, cfg)
	if err != nil {
		return nil, nil, st, err
	}
	n := g.NumVertices()

	// Each pass iterates one step's vertex scope: all n vertices on a full
	// run (one shared set of chunk bounds), or the step's frontier member
	// list on a query-scoped run — the vertex loop itself is restricted, not
	// just the per-vertex work, and so are the arenas the steps fill
	// (core.NewStepArena).
	f := r.Frontier()
	var full pass
	if f == nil {
		full = fullPass(g)
	} else {
		st.FrontierVertices = f.Size()
	}
	passFor := func(step core.DistStep) pass {
		if f == nil {
			return full
		}
		return listPass(g, f.StepSet(step).Members())
	}

	// Step 1: truncated neighbourhoods Γ̂ (count pass, prefix sum, fill pass).
	truncPass := passFor(core.DistTruncate)
	trunc := core.NewStepArena[graph.VertexID](f, core.DistTruncate, n)
	forEachVertex(r, workers, truncPass, func(w *worker, _ int, u graph.VertexID) {
		trunc.SetCount(u, r.TruncateCount(u, w.s))
	})
	trunc.FinishCounts()
	forEachVertex(r, workers, truncPass, func(w *worker, _ int, u graph.VertexID) {
		r.TruncateFill(u, trunc.Row(u), w.s)
	})

	// Step 2: raw similarities and k_local relay selection.
	simsPass := passFor(core.DistRelays)
	sims := core.NewStepArena[core.VertexSim](f, core.DistRelays, n)
	forEachVertex(r, workers, simsPass, func(w *worker, _ int, u graph.VertexID) {
		sims.SetCount(u, r.RelayCount(u))
	})
	sims.FinishCounts()
	forEachVertex(r, workers, simsPass, func(w *worker, _ int, u graph.VertexID) {
		r.RelaysFill(u, trunc, sims.Row(u), w.s)
	})

	// Step 3: path combination and top-k aggregation. Final predictions are
	// the run's retained output: each worker appends them to its current
	// block and rows[i] aliases the region. A row never moves: when a block
	// has no room left for a full row of K, the worker starts a new one
	// (nextBlock), so a full pass allocates about what it keeps.
	k := r.Config().K
	predPass := passFor(core.DistCombine)
	rows := make([][]core.Prediction, predPass.len())
	st.ScoredVertices = len(rows)
	forEachVertex(r, workers, predPass, func(w *worker, i int, u graph.VertexID) {
		if cap(w.preds)-len(w.preds) < k {
			w.preds = make([]core.Prediction, 0, nextBlock(cap(w.preds), k))
		}
		begin := len(w.preds)
		w.preds = r.CombineAppend(u, trunc, sims, w.s, w.preds)
		if len(w.preds) > begin {
			rows[i] = w.preds[begin:len(w.preds):len(w.preds)]
		}
	})
	return f, rows, st, nil
}

// worker is the per-goroutine state of a pass: the reusable step scratch
// plus the current block of step 3's retained predictions.
type worker struct {
	s     *core.Scratch
	preds []core.Prediction
}

// maxBlock caps a step-3 prediction block at 1 MiB (64 Ki predictions of
// 16 B), so a worker's unused tail stays small beside the pass's output.
const maxBlock = 64 << 10

// nextBlock sizes a worker's next prediction block: twice the previous one,
// starting at 16 rows of k and capped at maxBlock, but never below 16 rows.
func nextBlock(prev, k int) int {
	return max(16*k, min(2*prev, maxBlock))
}

// pass is one parallel sweep's vertex sequence: the identity sequence
// 0..n-1 of a full run (full set, verts unused), or the explicit member
// list of a frontier set on a query-scoped run — which may be empty, and
// then the pass visits nothing. bounds index positions of the sequence.
type pass struct {
	full   bool
	verts  []graph.VertexID
	bounds []int
}

// len returns the sequence's length.
func (p pass) len() int { return p.bounds[len(p.bounds)-1] }

// vertex maps a sequence position to its vertex.
func (p pass) vertex(i int) graph.VertexID {
	if p.full {
		return graph.VertexID(i)
	}
	return p.verts[i]
}

// fullPass is the pass over every vertex of g; listPass the pass over
// exactly verts.
func fullPass(g graph.View) pass { return newPass(g, pass{full: true}, g.NumVertices()) }

func listPass(g graph.View, verts []graph.VertexID) pass {
	return newPass(g, pass{verts: verts}, len(verts))
}

// newPass splits p's sequence of n vertices into contiguous chunks of at
// most chunkVerts vertices and roughly chunkEdges out-edges each. The
// boundaries are computed once per sequence and shared by every pass over
// it.
func newPass(g graph.View, p pass, n int) pass {
	p.bounds = make([]int, 1, n/chunkVerts+2)
	vcount, edges := 0, 0
	for i := 0; i < n; i++ {
		vcount++
		edges += g.OutDegree(p.vertex(i))
		if vcount >= chunkVerts || edges >= chunkEdges {
			p.bounds = append(p.bounds, i+1)
			vcount, edges = 0, 0
		}
	}
	if p.len() != n {
		p.bounds = append(p.bounds, n)
	}
	return p
}

// forEachVertex executes fn for every position of the pass's sequence,
// sharding degree-aware chunks over up to workers goroutines with work
// stealing. Each goroutine gets its own worker state; fn must write only to
// its position's slot (or its vertex's arena row). A pass of fewer than
// minParallelChunks chunks runs inline on the caller's goroutine.
func forEachVertex(r *core.StepRunner, workers int, p pass, fn func(w *worker, i int, u graph.VertexID)) {
	chunks := len(p.bounds) - 1
	if chunks < minParallelChunks {
		workers = 1
	}
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		w := &worker{s: r.NewScratch()}
		for i, n := 0, p.len(); i < n; i++ {
			fn(w, i, p.vertex(i))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{s: r.NewScratch()}
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				for i := p.bounds[c]; i < p.bounds[c+1]; i++ {
					fn(w, i, p.vertex(i))
				}
			}
		}()
	}
	wg.Wait()
}

// runMeter brackets a run for its Stats: wall clock and heap allocation
// deltas, the latter through core.ReadHeapCounters, which costs no
// stop-the-world pause — a serving process pays this pair on every cache
// miss.
type runMeter struct {
	start time.Time
	heap  core.HeapCounters
}

func startMeter() runMeter {
	return runMeter{heap: core.ReadHeapCounters(), start: time.Now()}
}

// stop fills st's wall-clock, throughput and allocation fields.
func (m runMeter) stop(st *Stats, g graph.View) {
	st.WallSeconds = time.Since(m.start).Seconds()
	if st.WallSeconds > 0 {
		st.EdgesPerSec = float64(g.NumEdges()) / st.WallSeconds
	}
	h := core.ReadHeapCounters()
	st.AllocBytes = int64(h.AllocBytes - m.heap.AllocBytes)
	st.AllocObjects = int64(h.AllocObjects - m.heap.AllocObjects)
}

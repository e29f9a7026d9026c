package graph

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// Builder accumulates edges and assembles an immutable Digraph.
// The zero value is unusable; construct with NewBuilder.
type Builder struct {
	numVertices int
	edges       []Edge
	withInEdges bool
	symmetrize  bool
	keepLoops   bool
}

// NewBuilder returns a builder for a graph with numVertices dense vertex IDs.
func NewBuilder(numVertices int) *Builder {
	return &Builder{numVertices: numVertices}
}

// WithInEdges makes Build also materialise the reverse adjacency.
func (b *Builder) WithInEdges(on bool) *Builder { b.withInEdges = on; return b }

// Symmetrize makes Build insert the reverse of every edge, turning an
// undirected edge list into the directed form used throughout the paper
// ("we transform them into directed by duplicating edges on both
// directions", Section 5.2). The counting-sort builder handles the reverse
// edges implicitly — they are never materialised.
func (b *Builder) Symmetrize(on bool) *Builder { b.symmetrize = on; return b }

// KeepSelfLoops retains self-loops instead of dropping them (the default).
func (b *Builder) KeepSelfLoops(on bool) *Builder { b.keepLoops = on; return b }

// AddEdge records the directed edge (u,v). Duplicates are removed at Build.
func (b *Builder) AddEdge(u, v VertexID) {
	b.edges = append(b.edges, Edge{u, v})
}

// Grow reserves capacity for n additional edges.
func (b *Builder) Grow(n int) {
	if cap(b.edges)-len(b.edges) < n {
		next := make([]Edge, len(b.edges), len(b.edges)+n)
		copy(next, b.edges)
		b.edges = next
	}
}

// NumPendingEdges returns the number of edges recorded so far (before
// deduplication and symmetrization).
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// parallelBuildMin is the edge count below which Build stays single-threaded:
// goroutine fan-out costs more than it saves on tiny inputs.
const parallelBuildMin = 1 << 15

// Build assembles the Digraph with a two-pass counting sort: a parallel
// count pass over the edge list fills a per-source histogram, a prefix sum
// turns it into CSR offsets, and a parallel scatter pass places every
// destination; per-vertex neighbour lists are then sorted and deduplicated
// in parallel and compacted into the final arrays. The result is identical
// to a global comparison sort — sorted, duplicate-free rows — but runs in
// O(E + Σ_u d_u log d_u) and scales with cores instead of O(E log E) on one,
// which is what keeps billion-edge ingest off the critical path. Self-loops
// are dropped unless KeepSelfLoops was set. Build returns an error if any
// endpoint is outside [0, numVertices).
func (b *Builder) Build() (*Digraph, error) {
	workers := runtime.GOMAXPROCS(0)
	if len(b.edges) < parallelBuildMin {
		workers = 1
	}
	return b.build(workers)
}

// histBudgetBytes caps the per-worker histogram block of build: with very
// many vertices the worker count is lowered rather than allocating an
// unbounded workers×n table.
const histBudgetBytes = 1 << 28

// build is Build with an explicit worker bound (tests force the parallel
// path on small inputs through it).
//
// Concurrency model: the edge list is split into one contiguous range per
// worker and every worker owns a private per-source histogram. The prefix
// sum interleaves the histograms (vertex-major, worker-minor) into absolute
// cursors, which hands each worker a reserved sub-range of every row it
// contributes to — both passes are therefore free of atomics and of shared
// counters, so hub vertices cost no cache-line contention.
func (b *Builder) build(workers int) (*Digraph, error) {
	n := b.numVertices
	edges := b.edges
	if workers < 1 {
		workers = 1
	}
	if workers > len(edges) {
		workers = max(len(edges), 1)
	}
	// Histogram work (allocation + serial prefix sum) is O(workers·n): keep
	// it proportional to the O(E) passes it serves, so vertex-heavy sparse
	// graphs don't pay for parallelism they can't use, and bound it in
	// absolute terms.
	if maxW := 4 * len(edges) / (n + 1); workers > maxW {
		workers = max(maxW, 1)
	}
	if maxW := int(histBudgetBytes / (8 * int64(n+1))); workers > maxW {
		workers = max(maxW, 1)
	}

	// Pass 1: validate endpoints and count edges per source into each
	// worker's histogram. Symmetrize counts the reverse direction instead of
	// materialising it; loop handling matches the scatter pass below.
	hist := make([]int64, workers*n)
	firstBad := make([]int, workers)
	forEachWorker(workers, func(w int) {
		h := hist[w*n : (w+1)*n]
		lo, hi := edgeRange(w, workers, len(edges))
		firstBad[w] = len(edges)
		for i := lo; i < hi; i++ {
			e := edges[i]
			if int(e.Src) >= n || int(e.Dst) >= n {
				firstBad[w] = i
				break
			}
			if e.Src == e.Dst && !b.keepLoops {
				continue
			}
			h[e.Src]++
			if b.symmetrize {
				h[e.Dst]++
			}
		}
	})
	bad := len(edges)
	for _, fb := range firstBad {
		bad = min(bad, fb)
	}
	if bad < len(edges) {
		return nil, fmt.Errorf("graph: edge (%d,%d) with %d vertices: %w",
			edges[bad].Src, edges[bad].Dst, n, errInvalidVertex)
	}

	// Prefix sum over (vertex, worker): off[u] is row u's start in the
	// duplicate-inclusive layout and hist[w*n+u] becomes worker w's private
	// write cursor inside that row.
	off := make([]int64, n+1)
	var total int64
	for u := 0; u < n; u++ {
		off[u] = total
		for w := 0; w < workers; w++ {
			c := hist[w*n+u]
			hist[w*n+u] = total
			total += c
		}
	}
	off[n] = total

	// Pass 2: scatter destinations, each worker walking its edge range in
	// order and writing through its own cursors — deterministic layout, no
	// synchronisation.
	adj := make([]VertexID, total)
	forEachWorker(workers, func(w int) {
		h := hist[w*n : (w+1)*n]
		lo, hi := edgeRange(w, workers, len(edges))
		for i := lo; i < hi; i++ {
			e := edges[i]
			if e.Src == e.Dst && !b.keepLoops {
				continue
			}
			adj[h[e.Src]] = e.Dst
			h[e.Src]++
			if b.symmetrize {
				adj[h[e.Dst]] = e.Src
				h[e.Dst]++
			}
		}
	})

	// Pass 3: sort, deduplicate and compact the scattered rows.
	return finishCSR(workers, n, off, adj, b.withInEdges), nil
}

// finishCSR is the counting-sort builder's final pass, shared with the
// streaming text ingester: given the duplicate-inclusive scatter layout
// (off is the per-vertex row offsets, adj the scattered destinations), it
// sorts and deduplicates every row in place in parallel and compacts the
// survivors into exact-sized final arrays. The scatter order within a row
// does not matter — rows come out sorted either way — which is what lets
// callers scatter from any sharding without synchronisation.
func finishCSR(workers, n int, off []int64, adj []VertexID, withInEdges bool) *Digraph {
	g := &Digraph{numVertices: n, outOff: make([]int64, n+1)}
	parallelRanges(workers, n, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			row := adj[off[u]:off[u+1]]
			slices.Sort(row)
			g.outOff[u+1] = int64(len(slices.Compact(row)))
		}
	})
	for u := 0; u < n; u++ {
		g.outOff[u+1] += g.outOff[u]
	}
	g.outAdj = make([]VertexID, g.outOff[n])
	parallelRanges(workers, n, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			kept := g.outOff[u+1] - g.outOff[u]
			copy(g.outAdj[g.outOff[u]:g.outOff[u+1]], adj[off[u]:off[u]+kept])
		}
	})
	if withInEdges {
		g.buildInAdjacency()
	}
	return g
}

// edgeRange returns worker w's contiguous share [lo, hi) of m edges.
func edgeRange(w, workers, m int) (lo, hi int) {
	return w * m / workers, (w + 1) * m / workers
}

// forEachWorker runs fn(0..workers-1) concurrently (inline when single).
func forEachWorker(workers int, fn func(w int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// parallelRanges splits [0, n) into one contiguous range per worker and runs
// fn on each concurrently (inline when a single range remains).
func parallelRanges(workers, n int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	step := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += step {
		hi := lo + step
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// buildInAdjacency fills inOff/inAdj from the out-CSR with a counting sort,
// preserving sorted neighbour lists.
func (g *Digraph) buildInAdjacency() {
	n := g.numVertices
	g.inOff = make([]int64, n+1)
	for _, v := range g.outAdj {
		g.inOff[v+1]++
	}
	for v := 0; v < n; v++ {
		g.inOff[v+1] += g.inOff[v]
	}
	g.inAdj = make([]VertexID, len(g.outAdj))
	cursor := make([]int64, n)
	copy(cursor, g.inOff[:n])
	// Iterating sources in ascending order keeps each in-list sorted.
	for u := 0; u < n; u++ {
		for _, v := range g.OutNeighbors(VertexID(u)) {
			g.inAdj[cursor[v]] = VertexID(u)
			cursor[v]++
		}
	}
}

// FromEdges builds a Digraph from an edge list with default options
// (self-loops dropped, duplicates removed, no reverse adjacency).
func FromEdges(numVertices int, edges []Edge) (*Digraph, error) {
	b := NewBuilder(numVertices)
	b.Grow(len(edges))
	for _, e := range edges {
		b.AddEdge(e.Src, e.Dst)
	}
	return b.Build()
}

// MustFromEdges is FromEdges for tests and examples with known-good input;
// it panics on error.
func MustFromEdges(numVertices int, edges []Edge) *Digraph {
	g, err := FromEdges(numVertices, edges)
	if err != nil {
		panic(err)
	}
	return g
}

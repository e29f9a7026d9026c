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

// AddEdge records the directed edge (u,v). Duplicates and self-loops are
// removed at Build.
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

// parallelBuildMin is the edge count below which Build stays single-threaded:
// goroutine fan-out costs more than it saves on tiny inputs.
const parallelBuildMin = 1 << 15

// Build assembles the Digraph with assembleCSR's two-pass counting sort
// over the edge list, split into one contiguous range per worker. The
// result is identical to a global comparison sort — sorted, duplicate-free
// rows without self-loops — but runs in O(E + Σ_u d_u log d_u) and scales
// with cores instead of O(E log E) on one, which is what keeps
// billion-edge ingest off the critical path. Build returns an error if any
// endpoint is outside [0, numVertices).
func (b *Builder) Build() (*Digraph, error) {
	workers := runtime.GOMAXPROCS(0)
	if len(b.edges) < parallelBuildMin {
		workers = 1
	}
	return b.build(workers)
}

// build is Build with an explicit worker bound (tests force the parallel
// path on small inputs through it).
func (b *Builder) build(workers int) (*Digraph, error) {
	n, edges, sym := b.numVertices, b.edges, b.symmetrize
	// The histogram costs O(workers·n) to allocate and prefix-sum: keep it
	// proportional to the O(E) passes it serves, so vertex-heavy sparse
	// graphs don't pay for parallelism they can't use.
	workers = max(min(workers, len(edges), 4*len(edges)/(n+1)), 1)
	return assembleCSR(n, workers, workers, b.withInEdges,
		func(g, groups int, row []int64) error {
			lo, hi := edgeRange(g, groups, len(edges))
			for _, e := range edges[lo:hi] {
				if int(e.Src) >= n || int(e.Dst) >= n {
					return edgeOutOfRange(e.Src, e.Dst, n)
				}
				if e.Src == e.Dst {
					continue
				}
				row[e.Src]++
				if sym {
					row[e.Dst]++
				}
			}
			return nil
		},
		func(g, groups int, cur []int64, adj []VertexID) error {
			lo, hi := edgeRange(g, groups, len(edges))
			for _, e := range edges[lo:hi] {
				if e.Src == e.Dst {
					continue
				}
				adj[cur[e.Src]] = e.Dst
				cur[e.Src]++
				if sym {
					adj[cur[e.Dst]] = e.Src
					cur[e.Dst]++
				}
			}
			return nil
		})
}

// edgeOutOfRange is the error every builder reports for an edge with an
// endpoint outside [0, n).
func edgeOutOfRange(u, v VertexID, n int) error {
	return fmt.Errorf("graph: edge (%d,%d) with %d vertices: %w", u, v, n, errInvalidVertex)
}

// histBudgetBytes caps assembleCSR's groups×n histogram: with very many
// vertices the group count is lowered rather than allocating an unbounded
// table.
const histBudgetBytes = 1 << 28

// assembleCSR is the one counting sort behind every CSR this package
// builds from edges: Builder, BuildStream and the text ingester. The
// caller's input is split into groups, each a contiguous run of it, in
// order; the callbacks receive the group index and the group count.
//
//   - count(g, groups, row) adds group g's kept edges to row, its private
//     per-source histogram.
//   - An interleaved prefix sum (vertex-major, group-minor) turns the rows
//     into the duplicate-inclusive row offsets and each group's private
//     write cursors, which hands every group a reserved sub-range of every
//     CSR row it contributes to.
//   - scatter(g, groups, cur, adj) places group g's destinations into adj
//     through its cursors. Neither pass shares a counter or an atomic, so
//     hub vertices cost no cache-line contention.
//   - finishCSR sorts, deduplicates and compacts the rows on workers
//     goroutines.
//
// groups is lowered so the histogram fits histBudgetBytes. When a pass
// fails in some groups, the error of the lowest failing group is returned:
// groups cover the input in order, so that is the failure a sequential
// pass would meet first.
func assembleCSR(n, groups, workers int, withInEdges bool,
	count func(g, groups int, row []int64) error,
	scatter func(g, groups int, cur []int64, adj []VertexID) error) (*Digraph, error) {
	groups = max(min(groups, int(histBudgetBytes/(8*int64(n+1)))), 1)
	hist := make([]int64, groups*n)
	errs := make([]error, groups)
	forEachWorker(groups, func(g int) { errs[g] = count(g, groups, hist[g*n:(g+1)*n]) })
	if err := firstError(errs); err != nil {
		return nil, err
	}

	off := make([]int64, n+1)
	var total int64
	for u := 0; u < n; u++ {
		off[u] = total
		for g := 0; g < groups; g++ {
			c := hist[g*n+u]
			hist[g*n+u] = total
			total += c
		}
	}
	off[n] = total

	adj := make([]VertexID, total)
	forEachWorker(groups, func(g int) { errs[g] = scatter(g, groups, hist[g*n:(g+1)*n], adj) })
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return finishCSR(workers, n, off, adj, withInEdges), nil
}

// firstError returns the first non-nil error of errs.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// finishCSR is assembleCSR's final pass: given the duplicate-inclusive
// scatter layout (off is the per-vertex row offsets, adj the scattered
// destinations), it sorts and deduplicates every row in place in parallel
// and compacts the survivors into exact-sized final arrays. The scatter
// order within a row does not matter — rows come out sorted either way —
// which is what lets any grouping of the input scatter without
// synchronisation.
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

// edgeRange returns part w's contiguous share [lo, hi) of m items split
// into parts parts: the edges of a worker or stream shard, the shards of a
// histogram group.
func edgeRange(w, parts, m int) (lo, hi int) {
	return w * m / parts, (w + 1) * m / parts
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

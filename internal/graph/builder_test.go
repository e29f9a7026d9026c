package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// graphsEqual compares the full CSR state of two graphs, including the
// optional reverse adjacency.
func graphsEqual(a, b *Digraph) bool {
	return a.numVertices == b.numVertices &&
		reflect.DeepEqual(a.outOff, b.outOff) &&
		reflect.DeepEqual(a.outAdj, b.outAdj) &&
		reflect.DeepEqual(a.inOff, b.inOff) &&
		reflect.DeepEqual(a.inAdj, b.inAdj)
}

// buildSortSlice is the original builder — materialise, comparison-sort and
// deduplicate the full edge list — kept as the reference implementation
// Build is tested against and the baseline BenchmarkBuildCSR measures it
// against.
func (b *Builder) buildSortSlice() (*Digraph, error) {
	n := b.numVertices
	edges := append([]Edge(nil), b.edges...)
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) with %d vertices: %w",
				e.Src, e.Dst, n, errInvalidVertex)
		}
	}
	if b.symmetrize {
		rev := make([]Edge, 0, len(edges))
		for _, e := range edges {
			rev = append(rev, Edge{e.Dst, e.Src})
		}
		edges = append(edges, rev...)
	}
	kept := edges[:0]
	for _, e := range edges {
		if e.Src != e.Dst {
			kept = append(kept, e)
		}
	}
	edges = kept
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		return edges[i].Dst < edges[j].Dst
	})
	// Deduplicate in place.
	dedup := edges[:0]
	for i, e := range edges {
		if i == 0 || e != edges[i-1] {
			dedup = append(dedup, e)
		}
	}
	edges = dedup

	g := &Digraph{
		numVertices: n,
		outOff:      make([]int64, n+1),
		outAdj:      make([]VertexID, len(edges)),
	}
	for _, e := range edges {
		g.outOff[e.Src+1]++
	}
	for u := 0; u < n; u++ {
		g.outOff[u+1] += g.outOff[u]
	}
	for i, e := range edges {
		g.outAdj[i] = e.Dst
	}
	if b.withInEdges {
		g.buildInAdjacency()
	}
	return g, nil
}

// TestBuildMatchesSortSlice: the parallel counting-sort builder and the
// legacy global-sort builder produce identical CSR state across option
// combinations, arbitrary duplicate/self-loop-laden inputs and worker
// counts (forcing the parallel path on small inputs).
func TestBuildMatchesSortSlice(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8, symmetrize, inEdges bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%50) + 1
		m := int(mRaw) * 4
		mk := func() *Builder {
			rng := rand.New(rand.NewSource(seed)) // same edge stream per builder
			b := NewBuilder(n).Symmetrize(symmetrize).WithInEdges(inEdges)
			for i := 0; i < m; i++ {
				b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
			}
			return b
		}
		_ = rng
		want, err := mk().buildSortSlice()
		if err != nil {
			return false
		}
		for _, workers := range []int{1, 4} {
			got, err := mk().build(workers)
			if err != nil || !graphsEqual(want, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBuildParallelRejectsOutOfRange: both builder paths report the same
// (first) offending edge.
func TestBuildParallelRejectsOutOfRange(t *testing.T) {
	for _, workers := range []int{1, 4} {
		b := NewBuilder(3)
		b.AddEdge(0, 1)
		b.AddEdge(1, 7) // first bad edge
		b.AddEdge(5, 0)
		_, err := b.build(workers)
		if err == nil {
			t.Fatalf("workers=%d: out-of-range edge accepted", workers)
		}
		want, _ := b.buildSortSlice()
		if want != nil {
			t.Fatal("legacy builder accepted out-of-range edge")
		}
		if got := err.Error(); got != "graph: edge (1,7) with 3 vertices: vertex id out of range" {
			t.Errorf("workers=%d: error = %q", workers, got)
		}
	}
}

// sliceStream is the EdgeStream whose shards are edgeRange's contiguous
// slices of edges, so stream order is edge-list order.
func sliceStream(edges []Edge) EdgeStream {
	return func(shard, shards int, yield func(u, v VertexID)) {
		lo, hi := edgeRange(shard, shards, len(edges))
		for _, e := range edges[lo:hi] {
			yield(e.Src, e.Dst)
		}
	}
}

// TestBuildStreamMatchesSortSlice: BuildStream over an edge list's stream
// equals the global-sort oracle on the same list at every worker count.
func TestBuildStreamMatchesSortSlice(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%50) + 1
		b := NewBuilder(n)
		for i := 0; i < int(mRaw)*4; i++ {
			b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
		}
		want, err := b.buildSortSlice()
		if err != nil {
			return false
		}
		for _, workers := range []int{1, 2, 4} {
			got, err := BuildStream(n, workers, sliceStream(b.edges))
			if err != nil || !graphsEqual(want, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBuildStreamRejectsOutOfRange: with two bad edges in different
// shards, every worker count reports the first one in stream order, in
// Builder's words.
func TestBuildStreamRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(3)
	for _, e := range []Edge{{0, 1}, {1, 7}, {1, 2}, {2, 0}, {0, 2}, {2, 1}, {5, 0}, {1, 0}} {
		b.AddEdge(e.Src, e.Dst)
	}
	_, want := b.build(1)
	if want == nil || want.Error() != "graph: edge (1,7) with 3 vertices: vertex id out of range" {
		t.Fatalf("Builder error = %v", want)
	}
	for _, workers := range []int{1, 2, 4} {
		_, err := BuildStream(3, workers, sliceStream(b.edges))
		if err == nil || err.Error() != want.Error() {
			t.Errorf("workers=%d: error = %v, want %v", workers, err, want)
		}
	}
}

// TestWithoutEdgesDuplicatesAndInEdges: duplicate removal entries are
// harmless and the reverse adjacency is rebuilt consistently.
func TestWithoutEdgesDuplicatesAndInEdges(t *testing.T) {
	b := NewBuilder(4).WithInEdges(true)
	for _, e := range []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 0}} {
		b.AddEdge(e.Src, e.Dst)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ng := g.WithoutEdges([]Edge{{0, 2}, {0, 2}, {2, 3}, {2, 3}, {9, 1}})
	if ng.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", ng.NumEdges())
	}
	if ng.HasEdge(0, 2) || ng.HasEdge(2, 3) {
		t.Error("removed edges still present")
	}
	if !ng.HasInEdges() {
		t.Fatal("reverse adjacency not rebuilt")
	}
	if got := ng.InNeighbors(2); !reflect.DeepEqual(got, []VertexID{1}) {
		t.Errorf("InNeighbors(2) = %v, want [1]", got)
	}
}

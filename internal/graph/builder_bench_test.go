package graph

import (
	"runtime"
	"testing"
)

// benchEdges synthesises a power-law-flavoured edge list: a dense hub core
// (quadratic ID decay via an LCG) over a sparse background, the shape the
// counting-sort builder is optimised for.
func benchEdges(n, m int) []Edge {
	edges := make([]Edge, m)
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 16
	}
	for i := range edges {
		u := next() % uint64(n)
		v := next() % uint64(n)
		if next()%4 == 0 { // hub bias
			v %= uint64(n/64 + 1)
		}
		edges[i] = Edge{VertexID(u), VertexID(v)}
	}
	return edges
}

// BenchmarkBuildCSR compares CSR construction strategies on the same edge
// list: the legacy global sort.Slice builder, the serial counting sort, the
// parallel counting sort at GOMAXPROCS, and BuildStream streaming the list
// at GOMAXPROCS. Run with -benchtime=1x in CI as a smoke test; on a
// multicore host the parallel builders should win.
func BenchmarkBuildCSR(b *testing.B) {
	const n, m = 1 << 16, 1 << 19
	edges := benchEdges(n, m)
	mk := func() *Builder {
		bld := NewBuilder(n)
		bld.Grow(len(edges))
		for _, e := range edges {
			bld.AddEdge(e.Src, e.Dst)
		}
		return bld
	}
	b.Run("sortslice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mk().buildSortSlice(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("counting-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mk().build(1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("counting-parallel", func(b *testing.B) {
		b.ReportAllocs()
		workers := runtime.GOMAXPROCS(0)
		for i := 0; i < b.N; i++ {
			if _, err := mk().build(workers); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		workers := runtime.GOMAXPROCS(0)
		for i := 0; i < b.N; i++ {
			if _, err := BuildStream(n, workers, sliceStream(edges)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

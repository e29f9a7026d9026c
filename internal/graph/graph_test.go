package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// triangle plus a pendant: 0->1,1->2,2->0,0->2,3->0
func testGraph(t *testing.T) *Digraph {
	t.Helper()
	g, err := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 0}, {0, 2}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBasicAccessors(t *testing.T) {
	g := testGraph(t)
	if g.NumVertices() != 4 {
		t.Errorf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 5 {
		t.Errorf("NumEdges = %d, want 5", g.NumEdges())
	}
	wantOut := map[VertexID][]VertexID{
		0: {1, 2},
		1: {2},
		2: {0},
		3: {0},
	}
	for u, want := range wantOut {
		got := g.OutNeighbors(u)
		if !reflect.DeepEqual(append([]VertexID{}, got...), want) {
			t.Errorf("OutNeighbors(%d) = %v, want %v", u, got, want)
		}
		if g.OutDegree(u) != len(want) {
			t.Errorf("OutDegree(%d) = %d, want %d", u, g.OutDegree(u), len(want))
		}
	}
	if !g.HasEdge(0, 2) || g.HasEdge(2, 1) || g.HasEdge(3, 3) {
		t.Error("HasEdge answered incorrectly")
	}
}

func TestBuilderDeduplicatesAndDropsLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(1, 1) // loop
	b.AddEdge(2, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (dedup + loop drop)", g.NumEdges())
	}
	if g.HasEdge(1, 1) {
		t.Error("self-loop survived")
	}
}

// buildWith is a test helper adding edges then building.
func (b *Builder) buildWith(edges []Edge) (*Digraph, error) {
	for _, e := range edges {
		b.AddEdge(e.Src, e.Dst)
	}
	return b.Build()
}

func TestBuilderSymmetrize(t *testing.T) {
	g, err := NewBuilder(3).Symmetrize(true).buildWith([]Edge{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Edge{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		if !g.HasEdge(e.Src, e.Dst) {
			t.Errorf("missing symmetrized edge %v", e)
		}
	}
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", g.NumEdges())
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	_, err := NewBuilder(2).buildWith([]Edge{{0, 5}})
	if err == nil {
		t.Fatal("Build accepted an out-of-range endpoint")
	}
}

func TestInAdjacency(t *testing.T) {
	g, err := NewBuilder(4).WithInEdges(true).buildWith(
		[]Edge{{0, 1}, {1, 2}, {2, 0}, {0, 2}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasInEdges() {
		t.Fatal("HasInEdges = false")
	}
	wantIn := map[VertexID][]VertexID{
		0: {2, 3},
		1: {0},
		2: {0, 1},
		3: {},
	}
	for v, want := range wantIn {
		got := append([]VertexID{}, g.InNeighbors(v)...)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("InNeighbors(%d) = %v, want %v", v, got, want)
		}
		if g.InDegree(v) != len(want) {
			t.Errorf("InDegree(%d) = %d, want %d", v, g.InDegree(v), len(want))
		}
	}
}

// TestInAdjacencyMirrorsOutAdjacency is a property test: for random graphs,
// (u,v) in out-adjacency iff (v,u) in in-adjacency, and both sides sorted.
func TestInAdjacencyMirrorsOutAdjacency(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%30) + 2
		m := int(mRaw)
		b := NewBuilder(n).WithInEdges(true)
		for i := 0; i < m; i++ {
			b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		fwd := make(map[Edge]bool)
		g.ForEachEdge(func(u, v VertexID) { fwd[Edge{u, v}] = true })
		count := 0
		for v := 0; v < n; v++ {
			in := g.InNeighbors(VertexID(v))
			if !sort.SliceIsSorted(in, func(i, j int) bool { return in[i] < in[j] }) {
				return false
			}
			for _, u := range in {
				if !fwd[Edge{u, VertexID(v)}] {
					return false
				}
				count++
			}
		}
		return count == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNeighborListsSorted(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%50) + 1
		b := NewBuilder(n)
		for i := 0; i < int(mRaw); i++ {
			b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		for u := 0; u < n; u++ {
			nb := g.OutNeighbors(VertexID(u))
			if !sort.SliceIsSorted(nb, func(i, j int) bool { return nb[i] < nb[j] }) {
				return false
			}
			// No duplicates.
			for i := 1; i < len(nb); i++ {
				if nb[i] == nb[i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWithoutEdges(t *testing.T) {
	g := testGraph(t)
	ng := g.WithoutEdges([]Edge{{0, 1}, {9, 9}}) // second edge absent: ignored
	if ng.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", ng.NumEdges())
	}
	if ng.HasEdge(0, 1) {
		t.Error("removed edge still present")
	}
	if !ng.HasEdge(0, 2) || !ng.HasEdge(3, 0) {
		t.Error("unrelated edges disappeared")
	}
	// Removing nothing yields a clean overlay that unwraps to the receiver.
	if csr, ok := AsCSR(g.WithoutEdges(nil)); !ok || csr != g {
		t.Error("WithoutEdges(nil) should unwrap to the same graph")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := testGraph(t)
	edges := g.Edges()
	g2, err := FromEdges(g.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.outAdj, g2.outAdj) || !reflect.DeepEqual(g.outOff, g2.outOff) {
		t.Error("Edges() -> FromEdges() round trip changed the graph")
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Error("empty graph is not empty")
	}
	s := ComputeStats(g)
	if s.Vertices != 0 || s.AvgOutDegree != 0 {
		t.Errorf("stats of empty graph: %+v", s)
	}
}

package gas

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"snaple/internal/cluster"
	"snaple/internal/gen"
	"snaple/internal/graph"
	"snaple/internal/partition"
)

// ---- test programs ----

// degProg counts the gathered edges of each vertex: G = int, V = int.
type degProg struct{}

func (degProg) Gather(_, _ graph.VertexID, _, _ *int) (int, bool) { return 1, true }
func (degProg) Sum(a, b int) int                                  { return a + b }
func (degProg) Apply(_ graph.VertexID, d *int, sum int, _ bool)   { *d = sum }
func (degProg) VertexBytes(*int) int64                            { return 8 }
func (degProg) GatherBytes(int) int64                             { return 8 }

// nbrProg collects sorted out-neighbour lists: V = []graph.VertexID.
type nbrProg struct{}

func (nbrProg) Gather(_, dst graph.VertexID, _, _ *[]graph.VertexID) ([]graph.VertexID, bool) {
	return []graph.VertexID{dst}, true
}
func (nbrProg) Sum(a, b []graph.VertexID) []graph.VertexID { return append(a, b...) }
func (nbrProg) Apply(_ graph.VertexID, d *[]graph.VertexID, sum []graph.VertexID, has bool) {
	if !has {
		*d = nil
		return
	}
	out := append([]graph.VertexID(nil), sum...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	*d = out
}
func (nbrProg) VertexBytes(v *[]graph.VertexID) int64 { return 24 + 4*int64(len(*v)) }
func (nbrProg) GatherBytes(g []graph.VertexID) int64  { return 4 * int64(len(g)) }

var (
	_ Program[int, int]                           = degProg{}
	_ Program[[]graph.VertexID, []graph.VertexID] = nbrProg{}
)

// ---- helpers ----

func testGraph(t testing.TB, n, m int, seed uint64) *graph.Digraph {
	t.Helper()
	g, err := gen.ErdosRenyi(n, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func distribute[V any](t testing.TB, g *graph.Digraph, parts, nodes int, budget int64) *DistGraph[V] {
	t.Helper()
	assign, err := partition.HashEdge{Seed: 1}.Partition(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{Nodes: nodes, Spec: cluster.TypeI(), MemBudgetBytes: budget}, parts)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := Distribute[V](g, assign, cl, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return dg
}

// ---- tests ----

func TestOutDegreeAcrossPartitionCounts(t *testing.T) {
	g := testGraph(t, 150, 1200, 2)
	for _, parts := range []int{1, 2, 3, 8} {
		dg := distribute[int](t, g, parts, 2, 0)
		if _, err := RunStep[int, int](dg, degProg{}); err != nil {
			t.Fatal(err)
		}
		count := 0
		dg.ForEachMaster(func(v graph.VertexID, d *int) {
			if *d != g.OutDegree(v) {
				t.Fatalf("parts=%d: degree(%d) = %d, want %d", parts, v, *d, g.OutDegree(v))
			}
			count++
		})
		if count == 0 {
			t.Fatal("no masters visited")
		}
	}
}

// TestInDegree gathers over in-edges the one way the engine offers: over the
// out-edges of the transposed graph.
func TestInDegree(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 1}, {Src: 3, Dst: 1}, {Src: 1, Dst: 0}}
	for i, e := range edges {
		edges[i] = graph.Edge{Src: e.Dst, Dst: e.Src}
	}
	dg := distribute[int](t, graph.MustFromEdges(4, edges), 3, 2, 0)
	if _, err := RunStep[int, int](dg, degProg{}); err != nil {
		t.Fatal(err)
	}
	wantIn := map[graph.VertexID]int{0: 1, 1: 3, 2: 0, 3: 0}
	dg.ForEachMaster(func(v graph.VertexID, d *int) {
		if *d != wantIn[v] {
			t.Errorf("in-degree(%d) = %d, want %d", v, *d, wantIn[v])
		}
	})
}

func TestNeighborCollection(t *testing.T) {
	g := testGraph(t, 80, 600, 5)
	dg := distribute[[]graph.VertexID](t, g, 4, 2, 0)
	if _, err := RunStep[[]graph.VertexID, []graph.VertexID](dg, nbrProg{}); err != nil {
		t.Fatal(err)
	}
	dg.ForEachMaster(func(v graph.VertexID, d *[]graph.VertexID) {
		want := g.OutNeighbors(v)
		if len(want) == 0 && len(*d) == 0 {
			return
		}
		if !reflect.DeepEqual(*d, append([]graph.VertexID(nil), want...)) {
			t.Fatalf("neighbours(%d) = %v, want %v", v, *d, want)
		}
	})
}

func TestMirrorsSeeRefreshedData(t *testing.T) {
	// Two chained steps: first collect neighbour lists, then gather the
	// *sizes* of the neighbours' lists. The second step reads Dv produced by
	// the first step on whatever partition the edge lives, so it exercises
	// the master->mirror broadcast.
	g := testGraph(t, 60, 500, 9)
	dg := distribute[[]graph.VertexID](t, g, 5, 3, 0)
	if _, err := RunStep[[]graph.VertexID, []graph.VertexID](dg, nbrProg{}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunStep[[]graph.VertexID, []graph.VertexID](dg, sumNbrSizesProg{}); err != nil {
		t.Fatal(err)
	}
	dg.ForEachMaster(func(v graph.VertexID, d *[]graph.VertexID) {
		var want int
		for _, w := range g.OutNeighbors(v) {
			want += g.OutDegree(w)
		}
		if len(*d) != want {
			t.Fatalf("vertex %d: sum of neighbour degrees = %d, want %d", v, len(*d), want)
		}
	})
}

// sumNbrSizesProg encodes the summed neighbour-list sizes as the length of
// the vertex's slice (reusing V = []graph.VertexID to avoid another type).
type sumNbrSizesProg struct{}

func (sumNbrSizesProg) Gather(_, _ graph.VertexID, _, dstData *[]graph.VertexID) ([]graph.VertexID, bool) {
	return make([]graph.VertexID, len(*dstData)), true
}
func (sumNbrSizesProg) Sum(a, b []graph.VertexID) []graph.VertexID { return append(a, b...) }
func (sumNbrSizesProg) Apply(_ graph.VertexID, d *[]graph.VertexID, sum []graph.VertexID, _ bool) {
	*d = sum
}
func (sumNbrSizesProg) VertexBytes(v *[]graph.VertexID) int64 { return 24 + 4*int64(len(*v)) }
func (sumNbrSizesProg) GatherBytes(g []graph.VertexID) int64  { return 4 * int64(len(g)) }

func TestSinglePartitionHasNoCrossTraffic(t *testing.T) {
	g := testGraph(t, 100, 800, 4)
	dg := distribute[int](t, g, 1, 1, 0)
	st, err := RunStep[int, int](dg, degProg{})
	if err != nil {
		t.Fatal(err)
	}
	if st.CrossBytes != 0 || st.CrossMsgs != 0 {
		t.Errorf("cross traffic on one partition: %d bytes %d msgs", st.CrossBytes, st.CrossMsgs)
	}
	if dg.ReplicationFactor() != 1 {
		t.Errorf("RF = %v, want 1", dg.ReplicationFactor())
	}
}

func TestCrossNodeTrafficCharged(t *testing.T) {
	g := testGraph(t, 100, 800, 4)
	dg := distribute[int](t, g, 8, 4, 0)
	st, err := RunStep[int, int](dg, degProg{})
	if err != nil {
		t.Fatal(err)
	}
	if st.CrossBytes == 0 || st.CrossMsgs == 0 {
		t.Error("expected cross-node traffic on 8 partitions over 4 nodes")
	}
	if st.SimNetSeconds <= 0 {
		t.Error("expected positive simulated network time")
	}
	if dg.ReplicationFactor() <= 1 {
		t.Errorf("RF = %v, want > 1", dg.ReplicationFactor())
	}
}

func TestMemoryExhaustion(t *testing.T) {
	g := testGraph(t, 200, 3000, 6)
	dg := distribute[[]graph.VertexID](t, g, 4, 2, 64) // 64-byte budget: hopeless
	_, err := RunStep[[]graph.VertexID, []graph.VertexID](dg, nbrProg{})
	if !errors.Is(err, cluster.ErrMemoryExhausted) {
		t.Fatalf("want ErrMemoryExhausted, got %v", err)
	}
}

func TestMemoryAccountingReleasesGatherState(t *testing.T) {
	g := testGraph(t, 100, 700, 8)
	dg := distribute[int](t, g, 2, 1, 0)
	// Step 1 establishes the vertex state; step 2 is the first step whose
	// peak includes both resident vertex data and transient gather state.
	for i := 0; i < 2; i++ {
		if _, err := RunStep[int, int](dg, degProg{}); err != nil {
			t.Fatal(err)
		}
	}
	peakAfterTwo := dg.cl.Snapshot().MaxMemPeak()
	for i := 0; i < 3; i++ {
		if _, err := RunStep[int, int](dg, degProg{}); err != nil {
			t.Fatal(err)
		}
	}
	// Identical steps release their gather state: the peak must not grow.
	if peak := dg.cl.Snapshot().MaxMemPeak(); peak != peakAfterTwo {
		t.Errorf("peak grew across identical steps: %d -> %d", peakAfterTwo, peak)
	}
}

func TestResultsIndependentOfPartitioning(t *testing.T) {
	g := testGraph(t, 120, 1000, 10)
	collect := func(parts int, strat partition.Strategy) map[graph.VertexID][]graph.VertexID {
		assign, err := strat.Partition(g, parts)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(cluster.Config{Nodes: 2, Spec: cluster.TypeI()}, parts)
		if err != nil {
			t.Fatal(err)
		}
		dg, err := Distribute[[]graph.VertexID](g, assign, cl, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunStep[[]graph.VertexID, []graph.VertexID](dg, nbrProg{}); err != nil {
			t.Fatal(err)
		}
		out := make(map[graph.VertexID][]graph.VertexID)
		dg.ForEachMaster(func(v graph.VertexID, d *[]graph.VertexID) {
			out[v] = append([]graph.VertexID(nil), *d...)
		})
		return out
	}
	ref := collect(1, partition.HashEdge{Seed: 1})
	for _, parts := range []int{2, 5} {
		for _, strat := range []partition.Strategy{partition.HashEdge{Seed: 9}, partition.Greedy{}, partition.HashSource{Seed: 4}} {
			got := collect(parts, strat)
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("results differ for parts=%d strategy=%s", parts, strat.Name())
			}
		}
	}
}

func TestDistributeValidation(t *testing.T) {
	g := testGraph(t, 10, 40, 1)
	assign, err := partition.HashEdge{}.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	clBad, err := cluster.New(cluster.Config{Nodes: 1, Spec: cluster.TypeI()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Distribute[int](g, assign, clBad, Options{}); !errors.Is(err, ErrMismatchedParts) {
		t.Errorf("want ErrMismatchedParts, got %v", err)
	}
	if _, err := Distribute[int](nil, assign, clBad, Options{}); err == nil {
		t.Error("accepted nil graph")
	}
	short := partition.Assignment{Parts: 3, EdgeTo: make([]int32, 1)}
	if _, err := Distribute[int](g, short, clBad, Options{}); err == nil {
		t.Error("accepted truncated assignment")
	}
}

// TestInitVertices: every replica starts from fn, so the masters hold it too,
// and a vertex with no edge has no copy at all.
func TestInitVertices(t *testing.T) {
	g := graph.MustFromEdges(5, []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}})
	dg := distribute[int](t, g, 2, 1, 0)
	dg.InitVertices(func(v graph.VertexID) int { return int(v) * 10 })
	seen := 0
	dg.ForEachMaster(func(v graph.VertexID, d *int) {
		if v == 4 {
			t.Error("isolated vertex 4 has a master copy")
		}
		if *d != int(v)*10 {
			t.Errorf("init vertex %d = %d", v, *d)
		}
		seen++
	})
	if seen != 4 {
		t.Errorf("visited %d masters, want 4", seen)
	}
}

func TestStepStatsAdd(t *testing.T) {
	a := StepStats{WallSeconds: 1, BusySeconds: []float64{1}, SimComputeSeconds: 2, SimNetSeconds: 1, CrossBytes: 10, MemPeakBytes: 5}
	b := StepStats{WallSeconds: 2, BusySeconds: []float64{3, 4}, SimComputeSeconds: 1, SimNetSeconds: 0.5, CrossBytes: 7, MemPeakBytes: 3}
	a.Add(b)
	if a.WallSeconds != 3 || a.CrossBytes != 17 || a.MemPeakBytes != 5 {
		t.Errorf("Add result: %+v", a)
	}
	if len(a.BusySeconds) != 2 || a.BusySeconds[0] != 4 || a.BusySeconds[1] != 4 {
		t.Errorf("busy merge: %v", a.BusySeconds)
	}
	if a.SimSeconds() != 4.5 {
		t.Errorf("SimSeconds = %v", a.SimSeconds())
	}
}

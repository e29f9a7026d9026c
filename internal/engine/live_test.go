package engine

import (
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"snaple/internal/core"
	"snaple/internal/graph"
)

// mutationBatches returns two (adds, removes) batches over g in the order
// they apply: adds and removes, then a re-add of one removed edge and the
// removal of one added edge — the copy-on-write chain serving produces.
func mutationBatches(g *graph.Digraph) [2][2][]graph.Edge {
	n := graph.VertexID(g.NumVertices())
	var adds, removes []graph.Edge
	for u := graph.VertexID(0); u < min(10, n); u++ {
		adds = append(adds, graph.Edge{Src: u, Dst: (u*37 + 13) % n})
	}
	for u := graph.VertexID(0); u < min(8, n); u++ {
		if row := g.OutNeighbors(u); len(row) > 0 {
			removes = append(removes, graph.Edge{Src: u, Dst: row[0]})
		}
	}
	return [2][2][]graph.Edge{{adds, removes}, {removes[:1], adds[:1]}}
}

// mutatedView layers mutationBatches over g as a live overlay view.
func mutatedView(t testing.TB, g *graph.Digraph) *graph.Delta {
	t.Helper()
	d := graph.NewDelta(g)
	for _, b := range mutationBatches(g) {
		var err error
		if d, err = d.Apply(b[0], b[1]); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// mutatedCSR is what mutatedView must equal, built without the overlay: g's
// edge set with each batch's adds and then its removes applied, assembled
// (self-loops dropped) as a fresh heap CSR.
func mutatedCSR(t testing.TB, g *graph.Digraph) *graph.Digraph {
	t.Helper()
	edges := map[graph.Edge]bool{}
	g.ForEachEdge(func(u, v graph.VertexID) { edges[graph.Edge{Src: u, Dst: v}] = true })
	for _, b := range mutationBatches(g) {
		for _, e := range b[0] {
			edges[e] = true
		}
		for _, e := range b[1] {
			delete(edges, e)
		}
	}
	csr, err := graph.FromEdges(g.NumVertices(), slices.Collect(maps.Keys(edges)))
	if err != nil {
		t.Fatal(err)
	}
	return csr
}

// TestFleetRejectsMutatedView pins the frozen-pack guard: a resident fleet
// serves the CSR it was packed from, so a view with pending mutations must
// be refused (with a hint to compact), while a clean overlay of the same
// CSR unwraps and serves fine.
func TestFleetRejectsMutatedView(t *testing.T) {
	g := testGraph(t, 150, 3)
	f, err := OpenFleet(g, FleetOptions{InProc: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 4, ThrGamma: 10, Seed: 42,
		Sources: []graph.VertexID{1, 2}}

	d := mutatedView(t, g)
	if _, _, err := f.Predict(d, cfg); err == nil || !strings.Contains(err.Error(), "compact") {
		t.Fatalf("mutated view: err = %v, want a compact-first rejection", err)
	}

	clean := g.WithoutEdges(nil) // empty overlay: unwraps to g
	want, _, err := f.Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := f.Predict(clean, cfg)
	if err != nil {
		t.Fatalf("clean overlay rejected: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("clean overlay served different predictions than its CSR")
	}
}

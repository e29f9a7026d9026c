package engine

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"snaple/internal/core"
	"snaple/internal/graph"
)

// mutatedView layers two mutation batches over g — adds, removes, and a
// re-add — returning the live overlay view.
func mutatedView(t testing.TB, g *graph.Digraph) *graph.Delta {
	t.Helper()
	n := graph.VertexID(g.NumVertices())
	var adds, removes []graph.Edge
	for u := graph.VertexID(0); u < 10; u++ {
		adds = append(adds, graph.Edge{Src: u, Dst: (u*37 + 13) % n})
	}
	for u := graph.VertexID(0); u < 8; u++ {
		if row := g.OutNeighbors(u); len(row) > 0 {
			removes = append(removes, graph.Edge{Src: u, Dst: row[0]})
		}
	}
	d, err := graph.NewDelta(g).Apply(adds, removes)
	if err != nil {
		t.Fatal(err)
	}
	// Second batch on top: re-add one removed edge, drop one added edge —
	// the copy-on-write chain the serving path produces.
	d, err = d.Apply(removes[:1], adds[:1])
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMutatedViewMatchesCompactedSnapshot is the live-graph acceptance
// oracle: a scoped predict over base+delta must be bit-identical, on every
// backend, to the same predict over the delta compacted into a fresh CSR,
// round-tripped through the .sgr snapshot codec — the exact state a server
// restart would reload.
func TestMutatedViewMatchesCompactedSnapshot(t *testing.T) {
	g := testGraph(t, 250, 11)
	d := mutatedView(t, g)

	var buf bytes.Buffer
	if err := graph.WriteSnapshot(&buf, d.Materialize()); err != nil {
		t.Fatal(err)
	}
	loaded, err := graph.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumEdges() != d.NumEdges() {
		t.Fatalf("snapshot edges %d, overlay %d", loaded.NumEdges(), d.NumEdges())
	}

	cfg := core.Config{
		Score: mustScore(t, "linearSum"), K: 5, KLocal: 4, ThrGamma: 10, Seed: 42,
		Sources: []graph.VertexID{0, 3, 7, 50, 120, 249},
	}
	backends := []struct {
		name string
		be   Backend
	}{
		{"serial", Serial{}},
		{"local", Local{Workers: 3}},
		{"sim", Sim{Nodes: 3, Seed: 9}},
		{"dist", Dist{InProc: 2, Seed: 42}},
	}
	var first core.Predictions
	for _, b := range backends {
		overDelta, _, err := b.be.Predict(d, cfg)
		if err != nil {
			t.Fatalf("%s over delta: %v", b.name, err)
		}
		overCSR, _, err := b.be.Predict(loaded, cfg)
		if err != nil {
			t.Fatalf("%s over snapshot: %v", b.name, err)
		}
		if !reflect.DeepEqual(overDelta, overCSR) {
			t.Fatalf("%s: delta view and compacted snapshot disagree", b.name)
		}
		if first == nil {
			first = overDelta
		} else if !reflect.DeepEqual(first, overDelta) {
			t.Fatalf("%s disagrees with %s over the mutated view", b.name, backends[0].name)
		}
	}
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

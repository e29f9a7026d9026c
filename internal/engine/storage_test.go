package engine

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"snaple/internal/core"
	"snaple/internal/graph"
)

// TestBackendsStorageEquivalence is the cross-representation oracle: every
// backend must produce bit-identical predictions whether the graph arrives
// as the heap CSR, the mmap-backed zero-copy view, the varint-packed
// adjacency or a live overlay with pending rows — for full runs and for
// query-scoped runs whose closure falls on either side of the arena rule.
// This is what lets snaple-serve map a snapshot
// instead of decoding it, or serve a mutated view, without changing a
// single prediction.
func TestBackendsStorageEquivalence(t *testing.T) {
	g := padGraph(t, testGraph(t, 250, 13), 250*sparsePad)
	dir := t.TempDir()
	write := func(name string, packed bool) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.WriteSnapshotOpts(f, g, graph.SnapshotOptions{Packed: packed}); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	open := func(path string) graph.View {
		v, info, err := graph.OpenGraphFile(path, graph.ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if info.Version < 2 {
			t.Fatalf("%s: expected a v2 snapshot, got v%d", path, info.Version)
		}
		return v
	}
	vMap := open(write("plain.sgr", false))
	vPacked := open(write("packed.sgr", true))
	if _, ok := vPacked.(*graph.Packed); !ok {
		t.Fatalf("packed snapshot opened as %T", vPacked)
	}
	// The same graph as an overlay that is really consulted: a base missing
	// the first out-edge of a few vertices, which a mutation batch adds back.
	var moved []graph.Edge
	for _, u := range []graph.VertexID{0, 3, 50, 120} {
		moved = append(moved, graph.Edge{Src: u, Dst: g.OutNeighbors(u)[0]})
	}
	vDelta, err := graph.NewDelta(g.WithoutEdges(moved).Materialize()).Apply(moved, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, clean := graph.AsCSR(vDelta); clean || vDelta.NumEdges() != g.NumEdges() {
		t.Fatalf("overlay view: clean=%v, %d edges, want a dirty overlay of %d", clean, vDelta.NumEdges(), g.NumEdges())
	}

	forms := &closureForms{}
	for _, sources := range [][]graph.VertexID{
		nil,                      // full run
		{3},                      // a closure small enough for rank-indexed arenas
		{0, 3, 50, 51, 120, 249}, // one past the arena rule (0 and 50 are hubs)
	} {
		cfg := core.Config{
			Score: mustScore(t, "linearSum"), K: 5, KLocal: 6, ThrGamma: 12, Seed: 42,
			Sources: sources,
		}
		if sources != nil {
			forms.note(t, g, cfg)
		}
		for _, be := range []Backend{
			Serial{}, Local{Workers: 3}, Sim{Nodes: 2, Seed: 9}, Dist{InProc: 2, Seed: 42},
		} {
			want, _, err := be.Predict(g, cfg)
			if err != nil {
				t.Fatalf("%s heap (sources=%v): %v", be.Name(), sources, err)
			}
			for _, rep := range []struct {
				name string
				v    graph.View
			}{{"mmap", vMap}, {"packed", vPacked}, {"delta", vDelta}} {
				got, _, err := be.Predict(rep.v, cfg)
				if err != nil {
					t.Fatalf("%s %s (sources=%v): %v", be.Name(), rep.name, sources, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s over %s (sources=%v) diverges from the heap CSR", be.Name(), rep.name, sources)
					diffPredictions(t, want, got)
				}
			}
		}
	}
	forms.assertBothArenaForms(t)
}

package engine

import (
	"reflect"
	"testing"

	"snaple/internal/core"
	"snaple/internal/graph"
	"snaple/internal/randx"
)

// testGraph builds a deterministic directed graph with a skewed degree
// distribution: a few hubs with out-degree near n/4 (so ThrGamma truncation
// actually triggers) plus a sparse random background.
func testGraph(t testing.TB, n int, seed uint64) *graph.Digraph {
	t.Helper()
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			p := 8.0 / float64(n)
			if u%50 == 0 {
				p = 0.25 // hubs
			}
			if randx.Float64(seed, uint64(u), uint64(v)) < p {
				edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)})
			}
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustScore(t testing.TB, name string) core.ScoreSpec {
	t.Helper()
	spec, err := core.ScoreByName(name, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// diffPredictions reports the first vertex where two prediction sets differ.
func diffPredictions(t *testing.T, want, got core.Predictions) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("length mismatch: want %d, got %d", len(want), len(got))
	}
	for u := range want {
		if !reflect.DeepEqual(want[u], got[u]) {
			t.Fatalf("vertex %d: want %v, got %v", u, want[u], got[u])
		}
	}
	t.Fatal("predictions differ but no vertex mismatch found")
}

func TestBackendsRejectInvalidConfig(t *testing.T) {
	g := testGraph(t, 20, 1)
	bad := core.Config{Score: mustScore(t, "linearSum"), K: -1}
	// Dist validates before connecting, so no worker needs to exist.
	for _, be := range []Backend{Serial{}, Local{}, Sim{}, Dist{}} {
		if _, _, err := be.Predict(g, bad); err == nil {
			t.Errorf("%s accepted invalid config", be.Name())
		}
	}
}

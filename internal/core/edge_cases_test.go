package core

import (
	"testing"

	"snaple/internal/graph"
)

// TestHighKLocalOnTinyGraph: KLocal larger than any degree behaves like
// unlimited.
func TestHighKLocalOnTinyGraph(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3},
	})
	limited := Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 1000, Seed: 2}
	unlimited := Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: Unlimited, Seed: 2}
	a, err := ReferenceSnaple(g, limited)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReferenceSnaple(g, unlimited)
	if err != nil {
		t.Fatal(err)
	}
	for u := range a {
		if len(a[u]) != len(b[u]) {
			t.Fatalf("vertex %d: %v vs %v", u, a[u], b[u])
		}
		for i := range a[u] {
			if a[u][i] != b[u][i] {
				t.Fatalf("vertex %d differs: %v vs %v", u, a[u], b[u])
			}
		}
	}
}

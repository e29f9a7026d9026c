package core

import (
	"testing"

	"snaple/internal/graph"
)

func TestThreeHopFindsDistantCandidates(t *testing.T) {
	// Path graph 0->1->2->3->4: with 2-hop paths, vertex 0 can only reach
	// candidate 2; with the 3-hop extension it also reaches 3.
	g := graph.MustFromEdges(5, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4},
	})
	base := Config{Score: mustScore(t, "counter"), K: 5, Seed: 1}

	two, err := ReferenceSnaple(g, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(two[0]) != 1 || two[0][0].Vertex != 2 {
		t.Fatalf("2-hop predictions for 0: %+v, want just vertex 2", two[0])
	}

	cfg3 := base
	cfg3.Paths = 3
	three, err := ReferenceSnaple(g, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if len(three[0]) != 2 {
		t.Fatalf("3-hop predictions for 0: %+v, want vertices 2 and 3", three[0])
	}
	found := map[graph.VertexID]bool{}
	for _, p := range three[0] {
		found[p.Vertex] = true
	}
	if !found[2] || !found[3] {
		t.Errorf("3-hop should reach 2 and 3, got %+v", three[0])
	}
}

func TestThreeHopCandidateBound(t *testing.T) {
	// Candidates <= klocal^2 + klocal^3 per vertex.
	g := communityGraph(t, 400, 93)
	const klocal = 3
	cfg := Config{Score: mustScore(t, "linearSum"), K: 1 << 20, KLocal: klocal, Paths: 3, Seed: 4}
	pred, err := ReferenceSnaple(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bound := klocal*klocal + klocal*klocal*klocal
	for u, ps := range pred {
		if len(ps) > bound {
			t.Fatalf("vertex %d has %d candidates > bound %d", u, len(ps), bound)
		}
	}
}

func TestThreeHopImprovesRecallOnSparseGraphs(t *testing.T) {
	// On a sparse graph the extra hop expands the candidate pool; with the
	// counter score the extension should find at least as many hidden edges.
	// (This mirrors the paper's motivation for exploring longer paths.)
	g := communityGraph(t, 600, 95)
	cfg2 := Config{Score: mustScore(t, "counter"), K: 10, KLocal: 5, Seed: 5}
	cfg3 := cfg2
	cfg3.Paths = 3
	p2, err := ReferenceSnaple(g, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := ReferenceSnaple(g, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	count := func(p Predictions) int {
		n := 0
		for _, ps := range p {
			n += len(ps)
		}
		return n
	}
	if count(p3) < count(p2) {
		t.Errorf("3-hop produced fewer candidates (%d) than 2-hop (%d)", count(p3), count(p2))
	}
}

func TestPathsValidation(t *testing.T) {
	cfg := Config{Score: mustScore(t, "linearSum"), K: 5, Paths: 4}
	if err := cfg.Validate(); err == nil {
		t.Error("Paths=4 accepted")
	}
	cfg.Paths = 2
	if err := cfg.Validate(); err != nil {
		t.Errorf("Paths=2 rejected: %v", err)
	}
}

package engine

import (
	"testing"

	"snaple/internal/core"
	"snaple/internal/graph"
)

// filterToSources is the specification of a query-scoped run: the full
// run's predictions with every non-source row dropped.
func filterToSources(full core.Predictions, sources []graph.VertexID) core.Predictions {
	out := make(core.Predictions, len(full))
	for _, s := range sources {
		out[s] = full[s]
	}
	return out
}

// padGraph returns g followed by isolated vertices up to n in all. Padding
// changes no closure and no prediction of g's own vertices; it only grows
// the vertex range a closure is compared against by core's promotion rules
// (a set becomes a bitmap past 1/512 of the range, a step's arena
// identity-indexed past 1/32), so source sets that run on bitmaps and
// identity-indexed arenas over g run on sorted lists and rank-indexed arenas
// over the padded graph.
func padGraph(t testing.TB, g *graph.Digraph, n int) *graph.Digraph {
	t.Helper()
	b := graph.NewBuilder(n).WithInEdges(g.HasInEdges())
	g.ForEachEdge(b.AddEdge)
	padded, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return padded
}

// sparsePad is the padded size, per vertex of a ~300-vertex test graph, at
// which a one-source closure gets rank-indexed arenas while a hub's or a
// 25-source one's is still past the arena rule.
const sparsePad = 16

// listPad is the padded size per vertex at which a one-source closure's
// sets stay sorted lists instead of bitmaps.
const listPad = 120

// closureForms counts the forms the closures of scoped configs took — rank-
// or identity-indexed step arenas, list-only sets — so the equivalence
// harness can assert it covered both sides of core's rules.
type closureForms struct{ rank, identity, lists int }

func (c *closureForms) note(t testing.TB, g graph.View, cfg core.Config) {
	t.Helper()
	f, err := core.NewFrontier(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if core.NewStepArena[int](f, core.DistTruncate, g.NumVertices()).Ranked() {
		c.rank++
	} else {
		c.identity++
	}
	if !f.Trunc.HasBitmap() {
		c.lists++
	}
}

// TestFrontierRejectsBadSources pins the error path: a source outside the
// vertex range fails on every backend before any work happens.
func TestFrontierRejectsBadSources(t *testing.T) {
	g := testGraph(t, 20, 1)
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, Sources: []graph.VertexID{20}}
	for _, be := range []Backend{Serial{}, Local{}, Sim{}, Dist{InProc: 2}} {
		if _, _, err := be.Predict(g, cfg); err == nil {
			t.Errorf("%s accepted out-of-range source", be.Name())
		}
	}
}

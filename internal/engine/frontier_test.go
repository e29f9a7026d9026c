package engine

import (
	"fmt"
	"reflect"
	"testing"

	"snaple/internal/core"
	"snaple/internal/graph"
	"snaple/internal/randx"
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

// frontierSourceSets returns the source-set shapes the equivalence table
// exercises on a graph whose first n vertices carry the edges: a singleton,
// a hub, duplicates, a deterministic random subset, and all n
// (scoped-but-complete).
func frontierSourceSets(n int) map[string][]graph.VertexID {
	random := make([]graph.VertexID, 0, 25)
	for i := 0; i < 25; i++ {
		random = append(random, graph.VertexID(randx.Uint64n(uint64(n), 99, uint64(i), 0)))
	}
	all := make([]graph.VertexID, n)
	for i := range all {
		all[i] = graph.VertexID(i)
	}
	return map[string][]graph.VertexID{
		"single":     {17},
		"hub":        {50},
		"duplicates": {7, 7, 7, 200},
		"random25":   random,
		"all":        all,
	}
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

// closureForms counts the forms the closures of a matrix's scoped configs
// took — rank- or identity-indexed step arenas, list-only sets — so the
// matrix can assert it covered both sides of core's rules.
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

func (c *closureForms) assertBothArenaForms(t testing.TB) {
	t.Helper()
	if c.rank == 0 || c.identity == 0 {
		t.Fatalf("closures by form = %+v, want rank- and identity-indexed arenas", *c)
	}
}

// TestFrontierEquivalence is the query-scoped equivalence table: on every
// backend, for every policy, sampling point and worker count, predictions of a
// run scoped to Sources=S must be bit-identical to the full run filtered to
// S — with the closure on either side of the arena rule. Run under
// -race to also exercise the scoped sharding.
func TestFrontierEquivalence(t *testing.T) {
	small := testGraph(t, 300, 7)
	forms := &closureForms{}
	sets := frontierSourceSets(small.NumVertices())
	for _, g := range []*graph.Digraph{small, padGraph(t, small, 300*sparsePad)} {
		testFrontierEquivalence(t, g, sets, forms)
	}
	forms.assertBothArenaForms(t)
	// Padded further, one-source closures are also small enough to stay
	// sorted lists (membership by binary search on every backend).
	testFrontierEquivalence(t, padGraph(t, small, 300*listPad), map[string][]graph.VertexID{
		"single": sets["single"], "duplicates": sets["duplicates"],
	}, forms)
	if forms.lists == 0 {
		t.Fatalf("closures by form = %+v, want some with list-only sets", *forms)
	}
}

func testFrontierEquivalence(t *testing.T, g *graph.Digraph, sourceSets map[string][]graph.VertexID, forms *closureForms) {
	n := g.NumVertices()

	type tc struct {
		score       string
		policy      core.SelectionPolicy
		thr, klocal int
	}
	var cases []tc
	for _, policy := range []core.SelectionPolicy{core.SelectMax, core.SelectMin, core.SelectRnd} {
		cases = append(cases, tc{"linearSum", policy, 10, 4})
	}
	cases = append(cases,
		tc{"geomSum", core.SelectMax, 10, 4},
		tc{"PPR", core.SelectMax, 10, 4},
		// Unsampled: every neighbour is in Γ̂, so the closure is the whole
		// two-hop ball of the sources.
		tc{"linearSum", core.SelectMax, core.Unlimited, core.Unlimited},
		// Random truncation with no hub threshold: Γ̂ depends on the seed
		// alone, which every backend must draw identically.
		tc{"linearSum", core.SelectRnd, core.Unlimited, 3},
	)

	for _, c := range cases {
		base := core.Config{
			Score:    mustScore(t, c.score),
			K:        5,
			KLocal:   c.klocal,
			ThrGamma: c.thr,
			Policy:   c.policy,
			Seed:     42,
		}
		full, err := core.ReferenceSnaple(g, base)
		if err != nil {
			t.Fatal(err)
		}
		for setName, sources := range sourceSets {
			want := filterToSources(full, sources)
			cfg := base
			cfg.Sources = sources
			forms.note(t, g, cfg)

			backends := []struct {
				name string
				be   Backend
			}{
				{"serial", Serial{}},
				{"local/w=1", Local{Workers: 1}},
				{"local/w=3", Local{Workers: 3}},
				{"local/w=8", Local{Workers: 8}},
				{"sim", Sim{Nodes: 3, Seed: 9}},
				{"dist/w=1", Dist{InProc: 1, Seed: 5}},
				{"dist/w=3", Dist{InProc: 3, Seed: 5}},
			}
			for _, b := range backends {
				name := fmt.Sprintf("n=%d/%s/%s/thr=%d/klocal=%d/%s/%s", n, c.score, c.policy, c.thr, c.klocal, setName, b.name)
				t.Run(name, func(t *testing.T) {
					got, st, err := b.be.Predict(g, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got) {
						for u := range want {
							if !reflect.DeepEqual(want[u], got[u]) {
								t.Fatalf("vertex %d: want %v, got %v", u, want[u], got[u])
							}
						}
						t.Fatal("predictions differ")
					}
					if st.FrontierVertices <= 0 || st.FrontierVertices > n {
						t.Errorf("FrontierVertices = %d", st.FrontierVertices)
					}
					distinct := map[graph.VertexID]bool{}
					for _, s := range sources {
						distinct[s] = true
					}
					if st.ScoredVertices != len(distinct) {
						t.Errorf("ScoredVertices = %d, want %d", st.ScoredVertices, len(distinct))
					}
				})
			}
		}
	}
}

// TestFrontierIsolatedSources pins the degenerate scoped run: sources with
// no edges at all produce empty predictions on every backend (and the dist
// backend ships nothing).
func TestFrontierIsolatedSources(t *testing.T) {
	g, err := graph.FromEdges(5, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, Seed: 1, Sources: []graph.VertexID{4}}
	for _, be := range []Backend{Serial{}, Local{}, Sim{}, Dist{InProc: 2}} {
		preds, st, err := be.Predict(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", be.Name(), err)
		}
		if len(preds) != 5 {
			t.Fatalf("%s: %d rows, want 5", be.Name(), len(preds))
		}
		for u, ps := range preds {
			if len(ps) != 0 {
				t.Fatalf("%s: vertex %d has predictions %v", be.Name(), u, ps)
			}
		}
		if st.ScoredVertices != 1 {
			t.Errorf("%s: ScoredVertices = %d", be.Name(), st.ScoredVertices)
		}
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

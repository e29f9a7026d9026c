package engine

import (
	"fmt"
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

// TestLocalMatchesReference is the backend-equivalence table: engine.Local
// must be bit-identical to core.ReferenceSnaple across scores, selection
// policies, truncation thresholds, relay bounds, seeds and worker counts. Run it under -race to also exercise the sharding.
func TestLocalMatchesReference(t *testing.T) {
	g := testGraph(t, 300, 7)

	type tc struct {
		score  string
		policy core.SelectionPolicy
		thr    int
		klocal int
		seed   uint64
	}
	var cases []tc
	// Full policy/sampling cross for the default score.
	for _, policy := range []core.SelectionPolicy{core.SelectMax, core.SelectMin, core.SelectRnd} {
		for _, thr := range []int{core.Unlimited, 10} {
			for _, klocal := range []int{core.Unlimited, 4, 1} {
				for _, seed := range []uint64{1, 42} {
					cases = append(cases, tc{"linearSum", policy, thr, klocal, seed})
				}
			}
		}
	}
	// Every Table 3 score family at the paper-style operating point.
	for _, score := range []string{"PPR", "counter", "euclSum", "geomSum", "linearMean", "geomMean", "linearGeom", "euclGeom", "geomGeom", "euclMean"} {
		cases = append(cases, tc{score, core.SelectMax, 10, 4, 42})
	}

	for _, c := range cases {
		cfg := core.Config{
			Score:    mustScore(t, c.score),
			K:        5,
			KLocal:   c.klocal,
			ThrGamma: c.thr,
			Policy:   c.policy,
			Seed:     c.seed,
		}
		want, err := core.ReferenceSnaple(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 8} {
			name := fmt.Sprintf("%s/%s/thr=%d/klocal=%d/seed=%d/workers=%d",
				c.score, c.policy, c.thr, c.klocal, c.seed, workers)
			t.Run(name, func(t *testing.T) {
				got, st, err := Local{Workers: workers}.Predict(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if st.Engine != "local" || st.Workers != workers {
					t.Errorf("stats = %+v", st)
				}
				if !reflect.DeepEqual(want, got) {
					diffPredictions(t, want, got)
				}
			})
		}
	}
}

// TestSimMatchesReference pins the Sim adapter to the same oracle and
// checks it reports the simulated costs the other backends cannot.
func TestSimMatchesReference(t *testing.T) {
	g := testGraph(t, 200, 3)
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 8, ThrGamma: 10, Seed: 5}
	want, err := core.ReferenceSnaple(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := Sim{Nodes: 3, Seed: 9}.Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		diffPredictions(t, want, got)
	}
	if st.Engine != "sim" {
		t.Errorf("engine = %q", st.Engine)
	}
	if st.ReplicationFactor < 1 || st.CrossBytes == 0 || st.SimSeconds == 0 {
		t.Errorf("sim costs missing: %+v", st)
	}
}

func TestSerialMatchesReference(t *testing.T) {
	g := testGraph(t, 150, 11)
	cfg := core.Config{Score: mustScore(t, "geomMean"), K: 5, KLocal: 6, Seed: 2}
	want, err := core.ReferenceSnaple(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := Serial{}.Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		diffPredictions(t, want, got)
	}
	if st.Engine != "serial" || st.Workers != 1 {
		t.Errorf("stats = %+v", st)
	}
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

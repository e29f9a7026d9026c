package core

import (
	"math"
	"slices"
	"testing"

	"snaple/internal/gen"
	"snaple/internal/graph"
)

func communityGraph(t testing.TB, n int, seed uint64) *graph.Digraph {
	t.Helper()
	g, err := gen.Community(gen.CommunityConfig{N: n, Communities: 8}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustScore(t testing.TB, name string) ScoreSpec {
	t.Helper()
	s, err := ScoreByName(name, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// predictionsEqual demands bit-identical vertices and scores.
func predictionsEqual(t *testing.T, got, want Predictions, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for v := range want {
		g, w := got[v], want[v]
		if len(g) != len(w) {
			t.Fatalf("%s: vertex %d has %d predictions, want %d\n got=%v\nwant=%v",
				label, v, len(g), len(w), g, w)
		}
		for i := range w {
			if g[i].Vertex != w[i].Vertex || g[i].Score != w[i].Score {
				t.Fatalf("%s: vertex %d prediction %d = %+v, want %+v",
					label, v, i, g[i], w[i])
			}
		}
	}
}

// TestPredictionsExcludeExistingEdges: no prediction may already be a
// neighbour or the vertex itself (the argtopk domain of Algorithm 1).
func TestPredictionsExcludeExistingEdges(t *testing.T) {
	g := communityGraph(t, 300, 41)
	cfg := Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 10, Seed: 7}
	pred, err := ReferenceSnaple(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for u, preds := range pred {
		uid := graph.VertexID(u)
		for _, p := range preds {
			if p.Vertex == uid {
				t.Fatalf("vertex %d predicted itself", u)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no predictions produced at all")
	}
	// Without truncation, Γ̂ = Γ, so no prediction may be an existing edge.
	for u, preds := range pred {
		for _, p := range preds {
			if g.HasEdge(graph.VertexID(u), p.Vertex) {
				t.Fatalf("vertex %d predicted existing neighbour %d", u, p.Vertex)
			}
		}
	}
}

// TestScoresSortedDescending: prediction lists are best-first with
// deterministic tie-breaking.
func TestScoresSortedDescending(t *testing.T) {
	g := communityGraph(t, 300, 43)
	cfg := Config{Score: mustScore(t, "linearSum"), K: 8, KLocal: 10, Seed: 9}
	pred, err := ReferenceSnaple(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for u, preds := range pred {
		for i := 1; i < len(preds); i++ {
			a, b := preds[i-1], preds[i]
			if a.Score < b.Score || (a.Score == b.Score && a.Vertex > b.Vertex) {
				t.Fatalf("vertex %d predictions out of order: %+v then %+v", u, a, b)
			}
		}
	}
}

// TestCounterCountsPaths: with the counter score and the Sum aggregator the
// score of a candidate is exactly its number of kept 2-hop paths; on an
// unsampled run over a small graph we can verify it combinatorially.
func TestCounterCountsPaths(t *testing.T) {
	// u=0 -> {1,2}; 1 -> {3}; 2 -> {3,4}. Paths to 3: 2 (via 1 and 2); to 4: 1.
	g := graph.MustFromEdges(5, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}, {Src: 2, Dst: 4},
	})
	cfg := Config{Score: mustScore(t, "counter"), K: 5, Seed: 1}
	pred, err := ReferenceSnaple(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p0 := pred[0]
	if len(p0) != 2 {
		t.Fatalf("vertex 0 predictions: %+v, want 2 entries", p0)
	}
	if p0[0].Vertex != 3 || p0[0].Score != 2 {
		t.Errorf("candidate 3 = %+v, want score 2 (two paths)", p0[0])
	}
	if p0[1].Vertex != 4 || p0[1].Score != 1 {
		t.Errorf("candidate 4 = %+v, want score 1", p0[1])
	}
}

// TestPPRScore verifies the PPR row of Table 3 on a hand graph:
// sim(x,y)=1/|Γ(y)|, path value sim(u,v)+sim(v,z), aggregated by Sum.
func TestPPRScore(t *testing.T) {
	g := graph.MustFromEdges(5, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4},
	})
	cfg := Config{Score: mustScore(t, "PPR"), K: 5, Seed: 1}
	pred, err := ReferenceSnaple(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// From 0: relay 1 (sim(0,1)=1/|Γ(1)|=1/2). Candidates via 1: 2 and 3.
	//   path 0->1->2: sim(0,1)+sim(1,2) = 1/2 + 1/1 = 1.5
	//   path 0->1->3: 1/2 + 1/1 = 1.5  (|Γ(3)| = 1)
	p0 := pred[0]
	if len(p0) != 2 {
		t.Fatalf("vertex 0: %+v", p0)
	}
	for _, p := range p0 {
		if math.Abs(p.Score-1.5) > 1e-12 {
			t.Errorf("PPR score of %d = %v, want 1.5", p.Vertex, p.Score)
		}
	}
	// Tie broken by id: 2 before 3.
	if p0[0].Vertex != 2 || p0[1].Vertex != 3 {
		t.Errorf("tie order: %+v", p0)
	}
}

// TestKLocalBoundsCandidates: k_local sampling caps the candidate space at
// k_local^2 per vertex (Section 5.7).
func TestKLocalBoundsCandidates(t *testing.T) {
	g := communityGraph(t, 500, 51)
	for _, klocal := range []int{2, 4} {
		cfg := Config{Score: mustScore(t, "linearSum"), K: 1 << 20, KLocal: klocal, Seed: 3}
		// K huge: predictions = all candidates; count must be <= klocal^2.
		pred, err := ReferenceSnaple(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for u, ps := range pred {
			if len(ps) > klocal*klocal {
				t.Fatalf("klocal=%d: vertex %d has %d candidates > %d",
					klocal, u, len(ps), klocal*klocal)
			}
		}
	}
}

// TestSelectionPolicies: Γmax keeps the most similar relays, Γmin the least
// similar, and they differ when similarity spreads.
func TestSelectionPolicies(t *testing.T) {
	cands := []VertexSim{{V: 1, Sim: 0.9}, {V: 2, Sim: 0.5}, {V: 3, Sim: 0.1}, {V: 4, Sim: 0.7}}
	cfgMax := Config{KLocal: 2, Policy: SelectMax}
	cfgMin := Config{KLocal: 2, Policy: SelectMin}
	cfgRnd := Config{KLocal: 2, Policy: SelectRnd, Seed: 123}
	selectRelays := func(cfg Config, u graph.VertexID, cands []VertexSim) []VertexSim {
		var s Scratch
		return s.applyRelays(&cfg, u, slices.Clone(cands))
	}

	max := selectRelays(cfgMax, 0, cands)
	if len(max) != 2 || max[0].V != 1 || max[1].V != 4 {
		t.Errorf("Γmax picked %+v, want vertices 1 and 4", max)
	}
	min := selectRelays(cfgMin, 0, cands)
	if len(min) != 2 || min[0].V != 2 || min[1].V != 3 {
		t.Errorf("Γmin picked %+v, want vertices 2 and 3", min)
	}
	rnd := selectRelays(cfgRnd, 0, cands)
	if len(rnd) != 2 {
		t.Errorf("Γrnd picked %d relays, want 2", len(rnd))
	}
	// Γrnd is deterministic in the seed.
	rnd2 := selectRelays(cfgRnd, 0, cands)
	for i := range rnd {
		if rnd[i] != rnd2[i] {
			t.Error("Γrnd not deterministic")
		}
	}
	// No sampling when the candidate list is short or KLocal unlimited.
	all := selectRelays(Config{KLocal: Unlimited, Policy: SelectMax}, 0, cands)
	if len(all) != 4 {
		t.Errorf("unlimited kept %d", len(all))
	}
	// Output sorted by vertex.
	for i := 1; i < len(all); i++ {
		if all[i].V < all[i-1].V {
			t.Error("relays not sorted by vertex")
		}
	}
}

func TestTruncationBehaviour(t *testing.T) {
	// Unlimited threshold keeps everything.
	for v := 0; v < 50; v++ {
		if !keepTruncated(1, 0, graph.VertexID(v), 50, Unlimited) {
			t.Fatal("unlimited truncation dropped a neighbour")
		}
		if !keepTruncated(1, 0, graph.VertexID(v), 10, 20) {
			t.Fatal("degree below threshold must never truncate")
		}
	}
	// Above threshold, the kept fraction approximates thr/deg.
	kept := 0
	const deg, thr, trials = 200, 20, 400
	for u := 0; u < trials; u++ {
		for v := 0; v < deg; v++ {
			if keepTruncated(7, graph.VertexID(u), graph.VertexID(1000+v), deg, thr) {
				kept++
			}
		}
	}
	got := float64(kept) / float64(trials*deg)
	want := float64(thr) / float64(deg)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("kept fraction %.4f, want ~%.4f", got, want)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, paths := range []int{0, 2} {
		good := Config{Score: mustScore(t, "linearSum"), K: 5, Paths: paths}
		if err := good.Validate(); err != nil {
			t.Fatalf("valid config (Paths=%d) rejected: %v", paths, err)
		}
	}
	bad := []Config{
		{Score: ScoreSpec{}, K: 5},
		{Score: mustScore(t, "linearSum"), K: 0},
		{Score: mustScore(t, "linearSum"), K: 5, KLocal: -1},
		{Score: mustScore(t, "linearSum"), K: 5, ThrGamma: -2},
		{Score: mustScore(t, "linearSum"), K: 5, Policy: SelectionPolicy(9)},
		{Score: mustScore(t, "linearSum"), K: 5, Paths: 1},
		{Score: mustScore(t, "linearSum"), K: 5, Paths: 3},
		{Score: mustScore(t, "linearSum"), K: 5, Paths: 4},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := ScoreByName("nope", 0.9); err == nil {
		t.Error("unknown score accepted")
	}
	if _, err := ScoreByName("linearSum", 1.5); err == nil {
		t.Error("alpha out of range accepted")
	}
}

func TestScoreRegistryComplete(t *testing.T) {
	names := ScoreNames()
	if len(names) != 11 {
		t.Fatalf("Table 3 has 11 scores, registry has %d", len(names))
	}
	for _, n := range names {
		s, err := ScoreByName(n, 0.9)
		if err != nil {
			t.Errorf("ScoreByName(%q): %v", n, err)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("spec %q invalid: %v", n, err)
		}
		if s.Name != n {
			t.Errorf("spec name %q != requested %q", s.Name, n)
		}
	}
	if len(SumFamilyScores()) != 5 {
		t.Error("Sum family should list 5 scores (Figures 8-10)")
	}
}

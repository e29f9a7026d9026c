package snaple

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func facadeGraph(t testing.TB) *Graph {
	t.Helper()
	g, err := GenerateCommunity(CommunityGraph{N: 400, Communities: 8}, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPredictFacade(t *testing.T) {
	g := facadeGraph(t)
	preds, err := Predict(g, Options{Score: "linearSum", KLocal: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, ps := range preds {
		nonEmpty += len(ps)
	}
	if nonEmpty == 0 {
		t.Fatal("no predictions")
	}
}

func TestPredictForFacade(t *testing.T) {
	g := facadeGraph(t)
	opts := Options{Score: "linearSum", KLocal: 10, Seed: 1}
	full, err := Predict(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	sources := []VertexID{3, 77, 201, 399}
	scoped, err := PredictFor(g, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(scoped) != len(full) {
		t.Fatalf("scoped has %d rows, full %d", len(scoped), len(full))
	}
	isSource := map[VertexID]bool{}
	for _, s := range sources {
		isSource[s] = true
	}
	for u := range scoped {
		v := VertexID(u)
		if isSource[v] {
			if !reflect.DeepEqual(scoped[u], full[u]) {
				t.Fatalf("source %d: scoped %v != full %v", v, scoped[u], full[u])
			}
		} else if scoped[u] != nil {
			t.Fatalf("non-source %d has predictions", v)
		}
	}
	if _, err := PredictFor(g, []VertexID{VertexID(len(full))}, opts); err == nil {
		t.Error("out-of-range source accepted")
	}
}

// TestQueryScopedDoesLessWork is the serving refactor's acceptance gate: on
// a ≥1M-edge graph, a 10k-source query must do measurably less work than a
// full pass — asserted on the engine's deterministic work counters
// (ScoredVertices, FrontierVertices, allocation volume) with wall time as a
// generous sanity bound, and produce bit-identical rows for the sources.
func TestQueryScopedDoesLessWork(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a ~1.4M-edge graph")
	}
	g, err := Dataset("livejournal", 12, 42)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() < 1_000_000 {
		t.Fatalf("graph too small for the acceptance bound: %v", g)
	}
	opts := Options{Score: "linearSum", KLocal: 20, ThrGamma: 200, Seed: 42, Engine: "local"}
	full, fullStats, err := PredictStats(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	// 10k distinct sources, deterministically scattered.
	n := g.NumVertices()
	sources := make([]VertexID, 0, 10_000)
	seen := make(map[VertexID]bool, 10_000)
	for i := 0; len(sources) < cap(sources); i++ {
		v := VertexID(uint32(i*2654435761) % uint32(n))
		if !seen[v] {
			seen[v] = true
			sources = append(sources, v)
		}
	}
	opts.Sources = sources
	scoped, scopedStats, err := PredictStats(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, s := range sources {
		if !reflect.DeepEqual(scoped[s], full[s]) {
			t.Fatalf("source %d: scoped %v != full %v", s, scoped[s], full[s])
		}
	}
	if fullStats.ScoredVertices != n || fullStats.FrontierVertices != 0 {
		t.Fatalf("full stats: %+v", fullStats)
	}
	if scopedStats.ScoredVertices != len(sources) {
		t.Fatalf("scoped ScoredVertices = %d, want %d", scopedStats.ScoredVertices, len(sources))
	}
	if scopedStats.FrontierVertices <= 0 || scopedStats.FrontierVertices >= n {
		t.Fatalf("scoped FrontierVertices = %d (n=%d)", scopedStats.FrontierVertices, n)
	}
	// Measured locally at ~0.24 of the full pass each; 0.6 leaves room for
	// CI noise while still proving the pass did a fraction of the work.
	if ratio := float64(scopedStats.AllocBytes) / float64(fullStats.AllocBytes); ratio > 0.6 {
		t.Errorf("scoped run allocated %.2fx of the full pass (%d vs %d bytes)",
			ratio, scopedStats.AllocBytes, fullStats.AllocBytes)
	}
	if ratio := scopedStats.WallSeconds / fullStats.WallSeconds; ratio > 0.8 {
		t.Errorf("scoped run took %.2fx of the full pass (%.3fs vs %.3fs)",
			ratio, scopedStats.WallSeconds, fullStats.WallSeconds)
	}
}

func TestPredictDefaultsAndErrors(t *testing.T) {
	g := facadeGraph(t)
	if _, err := Predict(g, Options{}); err != nil {
		t.Errorf("default options rejected: %v", err)
	}
	if _, err := Predict(g, Options{Score: "bogus"}); err == nil {
		t.Error("bogus score accepted")
	}
	if _, err := Predict(g, Options{Policy: "bogus"}); err == nil {
		t.Error("bogus policy accepted")
	}
	if _, err := Predict(g, Options{Engine: "sim", NodeType: "bogus"}); err == nil {
		t.Error("bogus node type accepted")
	}
	if _, err := Predict(g, Options{Engine: "sim", Strategy: "bogus"}); err == nil {
		t.Error("bogus strategy accepted")
	}
	if _, err := Predict(g, Options{Engine: "bogus"}); err == nil {
		t.Error("bogus engine accepted")
	}
	if _, err := Predict(g, Options{Engine: "local", Manifest: "graph.sgr.manifest"}); err == nil {
		t.Error("manifest accepted without the dist engine")
	}
}

func TestDistributedMatchesSerialViaFacade(t *testing.T) {
	g := facadeGraph(t)
	opts := Options{Score: "linearSum", KLocal: 8, ThrGamma: 50, Seed: 3}
	want, err := Predict(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []string{"hash-edge", "greedy"} {
		sim := opts
		sim.Engine, sim.Nodes, sim.NodeType, sim.Strategy = "sim", 2, "type-I", strategy
		preds, st, err := PredictStats(g, sim)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(preds, want) {
			t.Fatalf("distributed (%s) differs from serial", strategy)
		}
		if st.ReplicationFactor < 1 {
			t.Errorf("RF = %v", st.ReplicationFactor)
		}
		if st.CrossBytes == 0 {
			t.Error("expected cross-node traffic on 2 nodes")
		}
	}
}

func TestBaselineFacadeAndExhaustion(t *testing.T) {
	g := facadeGraph(t)
	preds, _, err := PredictBaseline(g, Options{Nodes: 2, NodeType: "type-II"})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) == 0 {
		t.Fatal("baseline produced nothing")
	}
	_, st, err := PredictBaseline(g, Options{Nodes: 2, MemBudgetBytes: 1024})
	if !errors.Is(err, ErrMemoryExhausted) {
		t.Fatalf("want ErrMemoryExhausted, got %v", err)
	}
	if st.Engine != "sim" || st.MemPeakBytes <= 1024 {
		t.Errorf("exhausted run reports %+v, want the partial sim costs", st)
	}
}

func TestWalksFacade(t *testing.T) {
	g := facadeGraph(t)
	preds, err := PredictWalks(g, 20, 3, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	any := false
	for _, ps := range preds {
		if len(ps) > 0 {
			any = true
			break
		}
	}
	if !any {
		t.Fatal("walks produced nothing")
	}
}

func TestEndToEndRecall(t *testing.T) {
	g, err := Dataset("gowalla", 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	split, err := NewSplit(g, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := Predict(split.Train, Options{Score: "linearSum", KLocal: 20, ThrGamma: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rec := Recall(preds, split)
	if rec <= 0.05 || rec > 1 {
		t.Errorf("recall = %v, want a plausible positive value", rec)
	}
}

func TestDatasetRegistryFacade(t *testing.T) {
	if len(DatasetNames()) != 5 {
		t.Error("expected 5 dataset analogs")
	}
	if len(ScoreNames()) != 11 {
		t.Error("expected 11 Table 3 scores")
	}
	if _, err := Dataset("unknown", 1, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestEdgeListRoundTripFacade(t *testing.T) {
	g := facadeGraph(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Errorf("round trip changed edges: %d -> %d", g.NumEdges(), g2.NumEdges())
	}
}

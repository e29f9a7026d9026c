package core

import (
	"math"
	"testing"

	"snaple/internal/graph"
)

func TestPathFeatures(t *testing.T) {
	lin := Linear(0.9).Fn
	s1, s2 := lin(0.4, 0.6), lin(0.2, 0.2)
	f := pathFeatures([]featurePath{{z: 3, s: s1, inv: 0.5}, {z: 3, s: s2, inv: 0.25}})
	if math.Abs(f[0]-(s1+s2)) > 1e-12 {
		t.Errorf("linearSum feature = %v, want %v", f[0], s1+s2)
	}
	if f[1] != 2 {
		t.Errorf("count feature = %v", f[1])
	}
	if math.Abs(f[2]-0.75) > 1e-12 {
		t.Errorf("inverse-degree feature = %v", f[2])
	}
	if math.Abs(f[3]-(s1+s2)/2) > 1e-12 {
		t.Errorf("mean feature = %v", f[3])
	}
	if f[4] != math.Max(s1, s2) || f[5] != math.Min(s1, s2) {
		t.Errorf("max/min features = %v/%v", f[4], f[5])
	}
	// Empty path set -> zero vector.
	if pathFeatures(nil) != ([numPathFeatures]float64{}) {
		t.Error("empty features not zero")
	}
}

func TestTrainSupervisedDeterministic(t *testing.T) {
	g := communityGraph(t, 600, 101)
	m1, err := TrainSupervised(g, SupervisedConfig{Seed: 5, Epochs: 50})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := TrainSupervised(g, SupervisedConfig{Seed: 5, Epochs: 50})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Weights != m2.Weights || m1.Bias != m2.Bias {
		t.Error("training not deterministic")
	}
	for i, w := range m1.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Errorf("weight %d = %v", i, w)
		}
	}
}

func TestTrainSupervisedErrors(t *testing.T) {
	empty := graph.MustFromEdges(3, nil)
	if _, err := TrainSupervised(empty, SupervisedConfig{}); err == nil {
		t.Error("empty graph accepted")
	}
	// All degrees <= 3: nothing to hide.
	small := graph.MustFromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	if _, err := TrainSupervised(small, SupervisedConfig{}); err == nil {
		t.Error("degenerate graph accepted")
	}
	g := communityGraph(t, 200, 103)
	m, err := TrainSupervised(g, SupervisedConfig{Seed: 1, Epochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(g, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestSupervisedPredictionsValid(t *testing.T) {
	g := communityGraph(t, 500, 107)
	m, err := TrainSupervised(g, SupervisedConfig{Seed: 2, Epochs: 50})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	produced := 0
	for u, ps := range pred {
		uid := graph.VertexID(u)
		for _, p := range ps {
			produced++
			if p.Vertex == uid {
				t.Fatalf("vertex %d predicted itself", u)
			}
			if p.Score < 0 || p.Score > 1 {
				t.Fatalf("sigmoid score out of range: %v", p.Score)
			}
		}
	}
	if produced == 0 {
		t.Fatal("no supervised predictions")
	}
}

// TestSupervisedLearnsUsefulSignal: on a held-out evaluation split, the
// learned model's recall should be in the same league as the hand-tuned
// linearSum (the paper expects supervised to eventually *improve* recall;
// here we require it not to collapse, since the model is deliberately
// small).
func TestSupervisedLearnsUsefulSignal(t *testing.T) {
	g := communityGraph(t, 1200, 109)
	// Build an evaluation split by hand (as eval.MakeSplit would, but this
	// package cannot import eval).
	var removed []graph.Edge
	hidden := make(map[graph.VertexID]graph.VertexID)
	for u := 0; u < g.NumVertices(); u++ {
		uid := graph.VertexID(u)
		nbrs := g.OutNeighbors(uid)
		if len(nbrs) <= 3 {
			continue
		}
		pick := nbrs[int(uid)%len(nbrs)]
		hidden[uid] = pick
		removed = append(removed, graph.Edge{Src: uid, Dst: pick})
	}
	train := g.WithoutEdges(removed)

	m, err := TrainSupervised(train, SupervisedConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sup, err := m.Predict(train, 5)
	if err != nil {
		t.Fatal(err)
	}
	uns, err := ReferenceSnaple(train, Config{
		Score: mustScore(t, "linearSum"), K: 5, KLocal: 20, ThrGamma: 200, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	recall := func(pred Predictions) float64 {
		hits := 0
		for u, target := range hidden {
			for _, p := range pred[u] {
				if p.Vertex == target {
					hits++
				}
			}
		}
		return float64(hits) / float64(len(hidden))
	}
	rs, ru := recall(sup), recall(uns)
	t.Logf("supervised recall %.3f, linearSum recall %.3f", rs, ru)
	if rs < 0.6*ru {
		t.Errorf("supervised recall %.3f collapsed vs linearSum %.3f", rs, ru)
	}
}

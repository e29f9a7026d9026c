package core

import (
	"fmt"
	"math"
	"testing"

	"snaple/internal/cluster"
	"snaple/internal/graph"
	"snaple/internal/partition"
)

// TestSimCostsGolden pins the sim backend's deterministic costs to values
// recorded before the step programs became schedulers of steps.go's kernels:
// Section 5's reproduction stands on what the GAS programs' GatherBytes and
// VertexBytes price, so moving their receivers may not move a byte. The peak
// is pinned at one host worker only (how partitions interleave may move it).
func TestSimCostsGolden(t *testing.T) {
	g := communityGraph(t, 500, 91)
	sources := []graph.VertexID{0, 17, 123, 301}
	cases := []struct {
		paths  int
		scoped bool
		policy SelectionPolicy
		cross  int64
		msgs   int64
		mem    int64
	}{
		{2, false, SelectMax, 410016, 6052, 129664},
		{2, false, SelectRnd, 411376, 6050, 131056},
		{2, true, SelectMax, 102888, 3740, 19364},
		{2, true, SelectRnd, 102888, 3740, 19364},
		{3, false, SelectMax, 897836, 7914, 256272},
		{3, false, SelectRnd, 901080, 7915, 262892},
		{3, true, SelectMax, 195732, 5256, 28812},
		{3, true, SelectRnd, 195676, 5255, 28780},
	}
	const rfBits = 0x400fc28f5c28f5c3 // 3.97
	for _, tc := range cases {
		cfg := Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 6, ThrGamma: 12,
			Policy: tc.policy, Paths: tc.paths, Seed: 3}
		if tc.paths == 3 {
			cfg.KLocal = 4
		}
		if tc.scoped {
			cfg.Sources = sources
		}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("paths=%d/scoped=%v/policy=%v/workers=%d", tc.paths, tc.scoped, tc.policy, workers), func(t *testing.T) {
				assign, err := partition.HashEdge{Seed: 11}.Partition(g, 6)
				if err != nil {
					t.Fatal(err)
				}
				cl, err := cluster.New(cluster.Config{Nodes: 3, Spec: cluster.TypeI()}, 6)
				if err != nil {
					t.Fatal(err)
				}
				res, err := PredictGASWorkers(g, assign, cl, cfg, workers)
				if err != nil {
					t.Fatal(err)
				}
				if res.Total.CrossBytes != tc.cross || res.Total.CrossMsgs != tc.msgs {
					t.Errorf("cross = %d B / %d msgs, want %d / %d", res.Total.CrossBytes, res.Total.CrossMsgs, tc.cross, tc.msgs)
				}
				if got := math.Float64bits(res.ReplicationFactor); got != rfBits {
					t.Errorf("replication factor %v (%#x), want %#x", res.ReplicationFactor, got, uint64(rfBits))
				}
				if workers == 1 && res.Total.MemPeakBytes != tc.mem {
					t.Errorf("peak memory %d B, want %d", res.Total.MemPeakBytes, tc.mem)
				}
			})
		}
	}
}

// TestTrainSupervisedGolden pins the trained model bit for bit to values
// recorded before candidateFeatures became runSteps12 plus its feature loop:
// same relays, same paths, same summation order.
func TestTrainSupervisedGolden(t *testing.T) {
	g := communityGraph(t, 500, 91)
	cases := []struct {
		cfg     SupervisedConfig
		weights [numPathFeatures]uint64
		bias    uint64
	}{
		{
			SupervisedConfig{Seed: 5, Epochs: 50},
			[numPathFeatures]uint64{0x3fbdadaf093e72e9, 0x3f9211060dd7998a, 0x3fc150116d92b253,
				0xbfcdf691fc5f26d0, 0xbfac176231558e8c, 0xbfd932b8f8483245},
			0xbff5c0edf9f4804a,
		},
		{
			// Truncation and k_local sampling both bind.
			SupervisedConfig{Seed: 7, Epochs: 40, KLocal: 5, ThrGamma: 8},
			[numPathFeatures]uint64{0xbfb92bcae7846169, 0xbfb2c8ff33b314d1, 0x3fa34fe0a7723b2f,
				0xbfd108f9626cdbc8, 0xbfcf8bde455f6ba1, 0xbfd24146149fa6b7},
			0xbff312e808fb1574,
		},
	}
	for _, tc := range cases {
		m, err := TrainSupervised(g, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range m.Weights {
			if got := math.Float64bits(w); got != tc.weights[i] {
				t.Errorf("%+v: weight %d = %#x, want %#x", tc.cfg, i, got, tc.weights[i])
			}
		}
		if got := math.Float64bits(m.Bias); got != tc.bias {
			t.Errorf("%+v: bias = %#x, want %#x", tc.cfg, got, tc.bias)
		}
	}
}

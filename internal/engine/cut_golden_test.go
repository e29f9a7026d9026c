package engine

import (
	"fmt"
	"hash/fnv"
	"testing"

	"snaple/internal/graph"
	"snaple/internal/partition"
)

// goldenCuts holds one FNV-1a digest per (strategy, shard count, storage) of
// everything PackShards emits: every shard's encoded columns — Locals, Deg,
// EdgeSrc/EdgeDst, IsMaster, HasRemote — with its header and fingerprint,
// then the encoded manifest. The values were recorded while engine's cut and
// gas.Distribute were still two separate builders: the one cut that replaced
// them has to write the same bytes.
var goldenCuts = map[string]uint64{
	"hash-edge/shards=1/csr":     0x1bfba5ef6518cff,
	"hash-edge/shards=1/delta":   0xc4c184111f6f2354,
	"hash-edge/shards=3/csr":     0xffa4c4d9cbee6657,
	"hash-edge/shards=3/delta":   0x3d52e8112b45708d,
	"hash-edge/shards=8/csr":     0x39ea188ca278d602,
	"hash-edge/shards=8/delta":   0x4d3b2b46442e48ed,
	"hash-source/shards=1/csr":   0xab66d312628ab4f7,
	"hash-source/shards=1/delta": 0x246a181d5a96f974,
	"hash-source/shards=3/csr":   0x649af91fd5458b63,
	"hash-source/shards=3/delta": 0x1153e2b8a4a2bbb6,
	"hash-source/shards=8/csr":   0x2e236273b5e97f8b,
	"hash-source/shards=8/delta": 0x20244508f83c5ed1,
	"greedy/shards=1/csr":        0x72743bce77f6d688,
	"greedy/shards=1/delta":      0x1422ba0f7c591cf5,
	"greedy/shards=3/csr":        0x2f0de6ba0279bde4,
	"greedy/shards=3/delta":      0xba97b2e6401656d9,
	"greedy/shards=8/csr":        0xbd4aa0a0ae047295,
	"greedy/shards=8/delta":      0x66ed2220f7318395,
}

// TestCutGolden holds the vertex cut to bytes recorded independently of its
// builder: every strategy, at one, a few and many shards, over a plain CSR
// and over a mutated overlay.
func TestCutGolden(t *testing.T) {
	g := testGraph(t, 200, 7)
	views := []struct {
		name string
		view graph.View
	}{{"csr", g}, {"delta", mutatedView(t, g)}}
	for _, strat := range []partition.Strategy{
		partition.HashEdge{Seed: 9}, partition.HashSource{Seed: 9}, partition.Greedy{},
	} {
		for _, shards := range []int{1, 3, 8} {
			for _, v := range views {
				key := fmt.Sprintf("%s/shards=%d/%s", strat.Name(), shards, v.name)
				files, man, err := PackShards(v.view, strat, 9, shards)
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				for i, sf := range files {
					if err := graph.WriteShard(h, sf); err != nil {
						t.Fatal(err)
					}
					man.Files[i] = fmt.Sprintf("g.sgr.%d", i)
				}
				if err := graph.WriteManifest(h, man); err != nil {
					t.Fatal(err)
				}
				if got, want := h.Sum64(), goldenCuts[key]; got != want {
					t.Errorf("%q: %#x, want %#x", key, got, want)
				}
			}
		}
	}
}

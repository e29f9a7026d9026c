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
// EdgeSrc/EdgeDst, Roles — with its header and fingerprint, then the encoded
// manifest. The values were recorded while engine's cut and gas.Distribute
// were still two separate builders: the one cut that replaced them has to
// write the same bytes. Shard format v2 (protocol v6) re-recorded every
// digest: its header says version 2 and its roles are one byte section where
// v1 had two 0/1 sections, master and remote. Every other section and the
// manifest kept v1's bytes, and each role byte is v1's master byte | its
// remote byte<<1.
var goldenCuts = map[string]uint64{
	"hash-edge/shards=1/csr":     0x5df354dce781b7bb,
	"hash-edge/shards=1/delta":   0xa8dce6c255a9e0a0,
	"hash-edge/shards=3/csr":     0x51476fb995f75437,
	"hash-edge/shards=3/delta":   0xae6a10a76376c3e1,
	"hash-edge/shards=8/csr":     0xe790ddb2d05d0adc,
	"hash-edge/shards=8/delta":   0x7f088a0a92735bf1,
	"hash-source/shards=1/csr":   0x4ba5ef99dc04100f,
	"hash-source/shards=1/delta": 0x872ab0d8f2adf47c,
	"hash-source/shards=3/csr":   0xca189b61d318bca4,
	"hash-source/shards=3/delta": 0xd710915cbaac27cd,
	"hash-source/shards=8/csr":   0x3ee11f2115679ebb,
	"hash-source/shards=8/delta": 0xe6fda2ffe430aa2d,
	"greedy/shards=1/csr":        0x4385c031fac85d5c,
	"greedy/shards=1/delta":      0xefaf38cdf94d5545,
	"greedy/shards=3/csr":        0x8a6afee315e9a02c,
	"greedy/shards=3/delta":      0xe105009f69b3a0a1,
	"greedy/shards=8/csr":        0x75d59440b03ceccf,
	"greedy/shards=8/delta":      0x22342812056ee6b8,
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

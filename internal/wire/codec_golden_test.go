package wire

import (
	"bytes"
	"hash/fnv"
	"testing"

	"snaple/internal/graph"
)

// codecGraph is a deterministic graph large enough that every snapshot
// column spans several of the writer's chunks.
func codecGraph(tb testing.TB, withIn bool) *graph.Digraph {
	tb.Helper()
	const n = 20_000
	b := graph.NewBuilder(n).WithInEdges(withIn)
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 5*n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		u := graph.VertexID(x % n)
		// Clustered targets keep the packed rows' gaps small, as real ones are.
		v := graph.VertexID((uint64(u) + (x>>32)%512) % n)
		b.AddEdge(u, v)
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestCodecBytesGolden pins the bytes the encoders emit: every snapshot
// layout (plain and packed, with and without in-edges, and the empty graph)
// and every frame FuzzWireFrame seeds, plain and with compression on. The
// values were recorded before the decoders were folded into one per format
// and are never edited: a codec change that moves a byte fails here.
// TestCutGolden pins the shard and manifest bytes the same way.
func TestCodecBytesGolden(t *testing.T) {
	snapshots := map[string]uint64{}
	for _, withIn := range []bool{false, true} {
		g := codecGraph(t, withIn)
		for _, packed := range []bool{false, true} {
			var buf bytes.Buffer
			if err := graph.WriteSnapshotOpts(&buf, g, graph.SnapshotOptions{Packed: packed}); err != nil {
				t.Fatal(err)
			}
			name := "plain"
			if packed {
				name = "packed"
			}
			if withIn {
				name += "+in"
			}
			snapshots[name] = fnv64(buf.Bytes())
		}
	}
	var empty bytes.Buffer
	if err := graph.WriteSnapshot(&empty, graph.MustFromEdges(0, nil)); err != nil {
		t.Fatal(err)
	}
	snapshots["empty"] = fnv64(empty.Bytes())
	wantSnapshots := map[string]uint64{
		"plain":     0x6e14a13eca66c40e,
		"packed":    0x25d75e1118665bcb,
		"plain+in":  0x205cb3da374f628a,
		"packed+in": 0x8e09428cba24099f,
		"empty":     0xeb4153f8673a7d90,
	}
	for name, got := range snapshots {
		if want, ok := wantSnapshots[name]; !ok || got != want {
			t.Errorf("snapshot %s: digest %#x, want %#x", name, got, want)
		}
	}

	var frames [2][]uint64
	for _, m := range fuzzSeedMsgs() {
		frames[0] = append(frames[0], fnv64(frameBytes(t, m, false)))
		frames[1] = append(frames[1], fnv64(frameBytes(t, m, true)))
	}
	wantFrames := [2][]uint64{
		{
			0x8925c0527368996a, 0x5bb687b5d018b999, 0x6ae8325cb71bb069, 0x5385f9a6e91740ef,
			0xc5e6e6ec81318997, 0xa71d387b6f63cf72, 0x14f300ff8119568a, 0xb8caa086e71907d4,
			0xa2cb3a72d740f3f4, 0x786010b607ec33c, 0x13212a3bf7456f10, 0xbb0a263243c2ce6e,
			0x3614afee6b5fd579, 0x27fa5fc557a4a591, 0x39c2ce564dd0766c, 0xe9783c4af7be9ff3,
			0x6f680a97cd70df32, 0xade5e5058b0e64c3, 0xa96498fdcc26e105, 0xd2d1e0b67be0bfe,
			0x2bc76b4cc29e65b4,
		},
		{
			0x8925c0527368996a, 0x5bb687b5d018b999, 0x6ae8325cb71bb069, 0x5385f9a6e91740ef,
			0xc5e6e6ec81318997, 0xa71d387b6f63cf72, 0x14f300ff8119568a, 0xb8caa086e71907d4,
			0xa2cb3a72d740f3f4, 0x786010b607ec33c, 0x13212a3bf7456f10, 0xbb0a263243c2ce6e,
			0x3614afee6b5fd579, 0x27fa5fc557a4a591, 0x39c2ce564dd0766c, 0xe9783c4af7be9ff3,
			0x6f680a97cd70df32, 0xade5e5058b0e64c3, 0xa96498fdcc26e105, 0xd2d1e0b67be0bfe,
			0xbe8304d8aecd1d57,
		},
	}
	for c, name := range []string{"plain", "compressed"} {
		if len(frames[c]) != len(wantFrames[c]) {
			t.Errorf("%s frames: %d seeds, want %d", name, len(frames[c]), len(wantFrames[c]))
			continue
		}
		for i, got := range frames[c] {
			if got != wantFrames[c][i] {
				t.Errorf("%s frame of seed %d: digest %#x, want %#x", name, i, got, wantFrames[c][i])
			}
		}
	}
	if t.Failed() {
		t.Logf("snapshots %#v", snapshots)
		t.Logf("frames %#v", frames)
	}
}

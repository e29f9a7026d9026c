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
// and change only with the protocol version: a codec change that moves a
// byte fails here. Protocol v5 re-recorded the frames whose payload it
// changed — hello and attach (the version, and the job spec without Paths),
// every ship (the shard file format) and refresh and mirrors (state records
// without the 3-hop and prediction columns). Protocol v6 re-recorded hello
// and attach (the version only: the attach's vertex, mask and role columns
// kept v5's layout) and every ship, the eight hostile ones included (shard
// format v2: one role byte section); the snapshot digests and the other
// frames are v5's. TestCutGolden pins the shard and manifest bytes the same
// way.
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
			0x662346d2cfc0572e, 0x40e216109b22f255, 0xbfed4d2941010c5f, 0x5385f9a6e91740ef,
			0xc5e6e6ec81318997, 0xa71d387b6f63cf72, 0x14f300ff8119568a, 0xd18688ee4eb366e7,
			0xe9737aea09893095, 0x786010b607ec33c, 0x13212a3bf7456f10, 0xbb0a263243c2ce6e,
			0xc06ca65bef4cc76e, 0x1a35e46b6c1f7e65, 0x97b4ae7daf9ee614, 0x2575b85bc9cecec5,
			0x83ec7702cfa4f010, 0xb4069235cadf612c, 0x98a926a08528c7ea, 0x7100661f8d6b1287,
			0x3319c6cc7c970b77,
		},
		{
			0x662346d2cfc0572e, 0x40e216109b22f255, 0xbfed4d2941010c5f, 0x5385f9a6e91740ef,
			0xc5e6e6ec81318997, 0xa71d387b6f63cf72, 0x14f300ff8119568a, 0xd18688ee4eb366e7,
			0xe9737aea09893095, 0x786010b607ec33c, 0x13212a3bf7456f10, 0xbb0a263243c2ce6e,
			0xc06ca65bef4cc76e, 0x1a35e46b6c1f7e65, 0x97b4ae7daf9ee614, 0x2575b85bc9cecec5,
			0x83ec7702cfa4f010, 0xb4069235cadf612c, 0x98a926a08528c7ea, 0x7100661f8d6b1287,
			0x34e8e560c9ee8d1d,
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

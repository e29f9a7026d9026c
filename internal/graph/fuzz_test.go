package graph

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// FuzzReadEdgeList drives the streaming parallel parser with arbitrary
// bytes and holds it to three properties: worker counts never disagree
// (same graph or same verdict), ASCII inputs match the sequential oracle
// exactly (the byte parser is ASCII-only by design, so non-ASCII inputs
// only assert no-panic), and every parsed graph survives both codec round
// trips (edge list with header, binary snapshot).
func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("# c\n0 1\n1 2\n"))
	f.Add([]byte("# vertices: 9\n3 4 0.5\n"))
	f.Add([]byte("5 2\n2 0"))
	f.Add([]byte("7 7\n\n% x\n1 2 3 4\n"))
	f.Add([]byte(" \t1\t2\r\n4294967295 0\n"))
	f.Add([]byte("42\n"))
	f.Add([]byte("1 99999999999999999999\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		g1, err1 := ReadEdgeList(bytes.NewReader(data), ReadOptions{Workers: 1})
		g4, err4 := ReadEdgeList(bytes.NewReader(data), ReadOptions{Workers: 4})
		if (err1 == nil) != (err4 == nil) {
			t.Fatalf("worker counts disagree on validity: %v vs %v", err1, err4)
		}
		if err1 == nil && !graphEqual(g1, g4) {
			t.Fatal("worker counts disagree on the graph")
		}
		ascii := true
		for _, b := range data {
			if b >= 0x80 {
				ascii = false
				break
			}
		}
		if ascii {
			want, werr := readEdgeListReference(bytes.NewReader(data), ReadOptions{})
			if (werr == nil) != (err1 == nil) {
				t.Fatalf("oracle disagrees on validity: oracle %v, ingester %v", werr, err1)
			}
			if werr == nil && !graphEqual(g1, want) {
				t.Fatal("ingester diverged from the sequential oracle")
			}
		}
		if err1 != nil {
			return
		}
		// Codec round trips: text (exact, thanks to the vertices header)...
		var txt bytes.Buffer
		if err := WriteEdgeList(&txt, g1); err != nil {
			t.Fatal(err)
		}
		rt, err := ReadEdgeList(bytes.NewReader(txt.Bytes()), ReadOptions{PreserveIDs: true})
		if err != nil {
			t.Fatalf("re-read of written edge list: %v", err)
		}
		if !graphEqual(g1, rt) {
			t.Fatal("edge-list round trip changed the graph")
		}
		// ...and binary snapshot.
		var snap bytes.Buffer
		if err := WriteSnapshot(&snap, g1); err != nil {
			t.Fatal(err)
		}
		rs, err := ReadSnapshot(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written snapshot: %v", err)
		}
		if !graphEqual(g1, rs) {
			t.Fatal("snapshot round trip changed the graph")
		}
	})
}

// FuzzReadSnapshot throws arbitrary bytes at the snapshot loader: it must
// never panic, and anything it accepts must satisfy the CSR invariants and
// survive a write/read round trip.
func FuzzReadSnapshot(f *testing.F) {
	for _, g := range []*Digraph{
		MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {3, 0}}),
		MustFromEdges(1, nil),
	} {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		g.buildInAdjacency()
		buf.Reset()
		if err := WriteSnapshot(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("SNAPLSGR"))
	f.Add([]byte("not a snapshot"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		g, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := validateCSR(g.NumVertices(), g.outOff, g.outAdj, "out"); err != nil {
			t.Fatalf("accepted snapshot violates CSR invariants: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of re-written snapshot: %v", err)
		}
		if !graphEqual(g, g2) {
			t.Fatal("snapshot round trip changed the graph")
		}
	})
}

// FuzzReadPacked hammers the packed-adjacency decode surface: varint
// corruption, truncation, padding abuse and lying headers. ReadSnapshot
// (the verifying view plus a decode) and the cheap in-place view behind
// mapped loads must never panic, never let a lying length or degree force
// a huge allocation, agree on the graph when they both accept, and
// anything accepted must satisfy the CSR invariants after decode.
func FuzzReadPacked(f *testing.F) {
	for _, g := range []*Digraph{
		MustFromEdges(5, []Edge{{0, 1}, {0, 4}, {1, 2}, {3, 0}, {4, 3}}),
		MustFromEdges(1, nil),
	} {
		var buf bytes.Buffer
		if err := WriteSnapshotOpts(&buf, g, SnapshotOptions{Packed: true}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		g.buildInAdjacency()
		buf.Reset()
		if err := WriteSnapshotOpts(&buf, g, SnapshotOptions{Packed: true}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("SNAPLSGR"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64)) // max-length varints everywhere
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		g, serr := ReadSnapshot(bytes.NewReader(data))
		img := alignedBytes(int64(len(data)))
		copy(img, data)
		v, verr := viewSnapshot(img, false)
		_, vverr := viewSnapshot(img, true)
		runtime.ReadMemStats(&m1)
		// A 64 KiB input must never cost megabytes: lying vertex/edge counts
		// and degree prefixes have to be rejected before allocation, not
		// after. (The slack covers test-harness noise, not graph columns.)
		if grew := int64(m1.TotalAlloc - m0.TotalAlloc); grew > 64<<20 {
			t.Fatalf("decoding %d input bytes allocated %d bytes", len(data), grew)
		}
		// The verifying view must accept a subset of what the cheap view does.
		if vverr == nil && verr != nil {
			t.Fatalf("verify accepted what the cheap view rejected: %v", verr)
		}
		if serr != nil {
			return
		}
		if err := validateCSR(g.NumVertices(), g.outOff, g.outAdj, "out"); err != nil {
			t.Fatalf("accepted snapshot violates CSR invariants: %v", err)
		}
		// When the cheap view also accepts, a packed view must decode to the
		// same graph ReadSnapshot produced.
		if verr == nil {
			if p, ok := v.(*Packed); ok {
				dec, err := p.Decode()
				if err != nil {
					t.Fatalf("cheap view accepted rows Decode rejects: %v", err)
				}
				if !graphEqual(g, dec) {
					t.Fatal("cheap packed view disagrees with ReadSnapshot")
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteSnapshotOpts(&buf, g, SnapshotOptions{Packed: true}); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of re-packed snapshot: %v", err)
		}
		if !graphEqual(g, g2) {
			t.Fatal("packed round trip changed the graph")
		}
	})
}

// hostileShards are shards that encode cleanly and break exactly one
// invariant ShardFile.Validate owns.
func hostileShards() map[string]*ShardFile {
	out := map[string]*ShardFile{}
	mutate := func(name string, f func(s *ShardFile)) {
		s := testShard()
		f(s)
		out[name] = s
	}
	mutate("descending-locals", func(s *ShardFile) { slices.Reverse(s.Locals) })
	mutate("duplicate-local", func(s *ShardFile) { s.Locals[1] = s.Locals[0] })
	mutate("local-beyond-graph", func(s *ShardFile) { s.Locals[4] = VertexID(s.NumVertices) })
	mutate("descending-edge-sources", func(s *ShardFile) { slices.Reverse(s.EdgeSrc) })
	mutate("edge-index-out-of-range", func(s *ShardFile) { s.EdgeDst[0] = int32(len(s.Locals)) })
	mutate("negative-edge-index", func(s *ShardFile) { s.EdgeSrc[0] = -1 })
	mutate("self-loop-edge", func(s *ShardFile) { s.EdgeDst[0] = s.EdgeSrc[0] })
	mutate("shard-index-outside-fleet", func(s *ShardFile) { s.Shard = s.Shards })
	mutate("column-length-mismatch", func(s *ShardFile) { s.Deg = s.Deg[:len(s.Deg)-1] })
	return out
}

// TestShardLoadersRefuseHostileShards: a shard that breaks an invariant is
// refused by the validator itself and by the shard decoder a worker pins
// through (ReadShard's and MapShardFile's one viewer), so `snaple-worker
// -shard` can never come up over one.
func TestShardLoadersRefuseHostileShards(t *testing.T) {
	for name, s := range hostileShards() {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
		var buf bytes.Buffer
		if err := EncodeShard(&buf, s); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadShard(bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("%s: ReadShard accepted it", name)
		}
	}
}

// FuzzShard holds the shard decoder — one in-place viewer behind ReadShard
// and MapShardFile — to FuzzReadManifest's discipline: it never panics,
// rejects a lying header count before allocating it, decides the same
// whether or not the reader's length is known, and anything it accepts
// passes Validate and re-encodes through WriteShard to exactly the bytes it
// was read from. That last property is what the refusal of trailing bytes
// buys; the wire's ship frame relies on it.
func FuzzShard(f *testing.F) {
	empty := &ShardFile{Fingerprint: 1, Shards: 1}
	for _, s := range []*ShardFile{testShard(), empty} {
		var buf bytes.Buffer
		if err := WriteShard(&buf, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, s := range hostileShards() {
		var buf bytes.Buffer
		if err := EncodeShard(&buf, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, c := range shardRefusals(f) {
		f.Add(c.data)
	}
	f.Add([]byte(shardMagic))
	f.Add([]byte("not a shard"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sized, serr := ReadShard(bytes.NewReader(data))
		streamed, uerr := ReadShard(struct{ io.Reader }{bytes.NewReader(data)}) // length unknown
		runtime.ReadMemStats(&m1)
		// Same bound as FuzzReadPacked: the slack covers the loaders' fixed
		// buffers and harness noise, never a column sized by a lying header.
		if grew := int64(m1.TotalAlloc - m0.TotalAlloc); grew > 64<<20 {
			t.Fatalf("decoding %d input bytes allocated %d bytes", len(data), grew)
		}
		if (serr == nil) != (uerr == nil) || !reflect.DeepEqual(sized, streamed) {
			t.Fatalf("known and unknown lengths disagree: %v / %v", serr, uerr)
		}
		if serr != nil {
			return
		}
		if err := sized.Validate(); err != nil {
			t.Fatalf("accepted shard fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteShard(&buf, sized); err != nil {
			t.Fatalf("accepted shard does not re-encode: %v", err)
		}
		if !bytes.Equal(data, buf.Bytes()) {
			t.Fatalf("re-encoding changed the shard's bytes:\n in %x\nout %x", data, buf.Bytes())
		}
	})
}

// FuzzReadManifest holds the manifest decoder to the discipline of the other
// four: it never panics, allocates in proportion to its input however its
// section lengths lie, decides the same whether or not the reader's length
// is known, and anything it accepts re-encodes through WriteManifest to the
// very bytes it was read from (the format tolerates trailing bytes after the
// last section, as a snapshot does).
func FuzzReadManifest(f *testing.F) {
	one := &Manifest{Fingerprint: 7, Shards: 1, Strategy: "greedy", Files: []string{"g.sgr.0"},
		Locals: []int64{0}, Masters: []int64{0}, Edges: []int64{0}}
	var valid []byte
	for _, m := range []*Manifest{testManifest(), one} {
		var buf bytes.Buffer
		if err := WriteManifest(&buf, m); err != nil {
			f.Fatal(err)
		}
		valid = buf.Bytes()
		f.Add(valid)
	}
	for _, n := range []int{0, 8, manifestHeaderLen - 1, manifestHeaderLen, manifestHeaderLen + 9, len(valid) - 1} {
		f.Add(bytes.Clone(valid[:n])) // truncated
	}
	for _, i := range []int{3, 20, manifestHeaderLen + 2, len(valid) - 2} {
		flipped := bytes.Clone(valid)
		flipped[i] ^= 0x10
		f.Add(flipped)
	}
	// Lying section lengths: the strategy's, then the file list's.
	filesAt := manifestHeaderLen + 8 + len(one.Strategy) + 4
	for _, at := range []int{manifestHeaderLen, filesAt} {
		for _, n := range []uint64{1 << 40, 64 << 20, 1 << 10} {
			lying := bytes.Clone(valid)
			binary.LittleEndian.PutUint64(lying[at:], n)
			f.Add(lying)
		}
	}
	f.Add([]byte(manifestMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sized, serr := ReadManifest(bytes.NewReader(data))
		streamed, uerr := ReadManifest(struct{ io.Reader }{bytes.NewReader(data)}) // length unknown
		runtime.ReadMemStats(&m1)
		// The slack covers the two decodes' fixed buffers and harness noise,
		// never a section sized by a lying prefix.
		if grew := int64(m1.TotalAlloc - m0.TotalAlloc); grew > 8<<20+16*int64(len(data)) {
			t.Fatalf("decoding %d input bytes allocated %d bytes", len(data), grew)
		}
		if (serr == nil) != (uerr == nil) || !reflect.DeepEqual(sized, streamed) {
			t.Fatalf("known and unknown lengths disagree: %v / %v", serr, uerr)
		}
		if serr != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteManifest(&buf, sized); err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("re-encoding changed the manifest's bytes:\n in %x\nout %x", data, buf.Bytes())
		}
	})
}

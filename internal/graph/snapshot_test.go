package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func randomGraph(t *testing.T, rng *rand.Rand, v, e int, withIn bool) *Digraph {
	t.Helper()
	b := NewBuilder(v).WithInEdges(withIn)
	for i := 0; i < e; i++ {
		b.AddEdge(VertexID(rng.Intn(v)), VertexID(rng.Intn(v)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func snapshotBytes(t *testing.T, g *Digraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct {
		name   string
		v, e   int
		withIn bool
	}{
		{"small", 16, 40, false},
		{"small with in-edges", 16, 40, true},
		{"isolated tail", 64, 10, false},
		{"empty", 5, 0, true},
		{"zero vertices", 0, 0, false},
		{"larger", 2000, 30000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var g *Digraph
			if tc.e == 0 {
				g = MustFromEdges(tc.v, nil)
				if tc.withIn {
					g.buildInAdjacency()
				}
			} else {
				g = randomGraph(t, rng, tc.v, tc.e, tc.withIn)
			}
			data := snapshotBytes(t, g)
			g2, err := ReadSnapshot(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if !graphEqual(g, g2) {
				t.Fatalf("round trip changed the graph: %s -> %s (inEdges %v -> %v)",
					g, g2, g.HasInEdges(), g2.HasInEdges())
			}
		})
	}
}

// TestSnapshotMatchesTextPath: packing and loading a snapshot must produce
// the same Digraph as parsing the text edge list it came from, including
// Symmetrize/WithInEdges/PreserveIDs combinations baked in at pack time.
func TestSnapshotMatchesTextPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		in := randomEdgeList(rng, 20+rng.Intn(200), false)
		for _, sym := range []bool{false, true} {
			for _, inE := range []bool{false, true} {
				for _, preserve := range []bool{false, true} {
					opts := ReadOptions{Symmetrize: sym, WithInEdges: inE, PreserveIDs: preserve}
					fromText, err := ReadEdgeList(strings.NewReader(in), opts)
					if err != nil {
						t.Fatal(err)
					}
					g2, err := ReadSnapshot(bytes.NewReader(snapshotBytes(t, fromText)))
					if err != nil {
						t.Fatal(err)
					}
					if !graphEqual(fromText, g2) {
						t.Fatalf("sym=%v inE=%v preserve=%v: snapshot path diverged from text path",
							sym, inE, preserve)
					}
				}
			}
		}
	}
}

func TestDetectFormat(t *testing.T) {
	g := MustFromEdges(3, []Edge{{0, 1}})
	if f := DetectFormat(snapshotBytes(t, g)); f != FormatSnapshot {
		t.Errorf("snapshot detected as %v", f)
	}
	for _, text := range []string{"", "#", "# comment\n", "0 1\n", "SNAPL", "SNAPLSG"} {
		if f := DetectFormat([]byte(text)); f != FormatEdgeList {
			t.Errorf("%q detected as %v, want edge list", text, f)
		}
	}
}

// TestSnapshotCorruptionRejected flips every bit of a valid snapshot and
// truncates it at every length: each mutation must load as an error, never
// as a silently different graph (magic, header CRC, section lengths and
// section CRCs together cover every byte).
func TestSnapshotCorruptionRejected(t *testing.T) {
	g := randomGraph(t, rand.New(rand.NewSource(9)), 12, 30, true)
	data := snapshotBytes(t, g)
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << bit
			if _, err := ReadSnapshot(bytes.NewReader(mut)); err == nil {
				t.Fatalf("bit flip at byte %d bit %d loaded without error", i, bit)
			}
		}
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := ReadSnapshot(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation to %d of %d bytes loaded without error", cut, len(data))
		}
	}
	// Trailing data after the last section is explicitly tolerated.
	if _, err := ReadSnapshot(bytes.NewReader(append(append([]byte(nil), data...), "tail"...))); err != nil {
		t.Fatalf("trailing bytes rejected: %v", err)
	}
}

// TestSnapshotRejectsInvalidStructure writes structurally broken graphs
// through the (non-validating) writer and checks the loader's CSR
// validation refuses them even though every checksum is intact.
func TestSnapshotRejectsInvalidStructure(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Digraph
	}{
		{"row not strictly increasing", &Digraph{
			numVertices: 2, outOff: []int64{0, 2, 2}, outAdj: []VertexID{1, 1},
		}},
		{"row unsorted", &Digraph{
			numVertices: 3, outOff: []int64{0, 2, 2, 2}, outAdj: []VertexID{2, 0},
		}},
		{"neighbor out of range", &Digraph{
			numVertices: 2, outOff: []int64{0, 1, 1}, outAdj: []VertexID{5},
		}},
		{"offsets decreasing", &Digraph{
			numVertices: 2, outOff: []int64{0, 2, 1}, outAdj: []VertexID{1},
		}},
		{"offsets negative", &Digraph{
			numVertices: 2, outOff: []int64{0, -1, 1}, outAdj: []VertexID{1},
		}},
		{"in-adjacency bad", &Digraph{
			numVertices: 2, outOff: []int64{0, 1, 1}, outAdj: []VertexID{1},
			inOff: []int64{0, 0, 1}, inAdj: []VertexID{9},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadSnapshot(bytes.NewReader(snapshotBytes(t, tc.g))); err == nil {
				t.Fatal("structurally invalid snapshot loaded without error")
			}
		})
	}
}

// TestSnapshotRejectsSelfLoops: View promises rows without self-loops, so
// a checksum-clean snapshot whose out- or in-row of u holds u is refused by
// every fully validating load — ReadSnapshot and OpenGraphFile with Verify
// or NoMap, plain and packed alike.
func TestSnapshotRejectsSelfLoops(t *testing.T) {
	dir := t.TempDir()
	for name, g := range map[string]*Digraph{
		"out-row": {numVertices: 2, outOff: []int64{0, 2, 2}, outAdj: []VertexID{0, 1}},
		"in-row": {
			numVertices: 2, outOff: []int64{0, 1, 1}, outAdj: []VertexID{1},
			inOff: []int64{0, 0, 1}, inAdj: []VertexID{1},
		},
	} {
		for _, packed := range []bool{false, true} {
			label := fmt.Sprintf("%s packed=%v", name, packed)
			var buf bytes.Buffer
			if err := WriteSnapshotOpts(&buf, g, SnapshotOptions{Packed: packed}); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
				t.Errorf("%s: ReadSnapshot accepted a self-loop", label)
			}
			path := filepath.Join(dir, fmt.Sprintf("%s-%v.sgr", name, packed))
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, opts := range []ReadOptions{{Verify: true}, {NoMap: true}} {
				if _, _, err := OpenGraphFile(path, opts); err == nil {
					t.Errorf("%s: OpenGraphFile(%+v) accepted a self-loop", label, opts)
				}
			}
		}
	}
}

// TestSnapshotV1Rejected: the retired version-1 layout yields the one typed
// re-pack error from every loader, decided on the header alone.
func TestSnapshotV1Rejected(t *testing.T) {
	data := snapshotBytes(t, MustFromEdges(3, []Edge{{0, 1}}))
	binary.LittleEndian.PutUint32(data[8:], 1)
	binary.LittleEndian.PutUint32(data[32:], crc32.Checksum(data[:32], snapshotCRC))
	if _, err := ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, errSnapshotV1) {
		t.Errorf("ReadSnapshot: err = %v, want errSnapshotV1", err)
	}
	path := filepath.Join(t.TempDir(), "v1.sgr")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenGraphFile(path, ReadOptions{}); !errors.Is(err, errSnapshotV1) {
		t.Errorf("OpenGraphFile: err = %v, want errSnapshotV1", err)
	}
}

func TestReadGraphFileAutoDetect(t *testing.T) {
	dir := t.TempDir()
	g := MustFromEdges(7, []Edge{{0, 1}, {1, 2}, {2, 3}})

	textPath := dir + "/g.txt"
	sgrPath := dir + "/g.sgr"
	writeFile := func(path string, write func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(textPath, func(b *bytes.Buffer) error { return WriteEdgeList(b, g) })
	writeFile(sgrPath, func(b *bytes.Buffer) error { return WriteSnapshot(b, g) })

	fromText, err := ReadGraphFile(textPath, ReadOptions{PreserveIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	fromSnap, err := ReadGraphFile(sgrPath, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !graphEqual(fromText, g) || !graphEqual(fromSnap, g) {
		t.Fatalf("auto-detected loads differ: text %s, snapshot %s, want %s", fromText, fromSnap, g)
	}
	// WithInEdges materialises the reverse adjacency on snapshots that
	// lack one; Symmetrize is rejected (it applies at pack time).
	withIn, err := ReadGraphFile(sgrPath, ReadOptions{WithInEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	if !withIn.HasInEdges() || withIn.InDegree(1) != 1 {
		t.Error("WithInEdges not materialised on snapshot load")
	}
	if _, err := ReadGraphFile(sgrPath, ReadOptions{Symmetrize: true}); err == nil {
		t.Error("Symmetrize on a snapshot: want error")
	}
}

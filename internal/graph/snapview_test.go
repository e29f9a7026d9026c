package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// viewEqual holds any View to the heap *Digraph oracle on every accessor of
// the View interface: counts, both row accessors per direction, HasEdge on
// every present edge plus probes around each row, and the ForEachEdge
// enumeration order.
func viewEqual(t *testing.T, want *Digraph, got View, label string) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: size %d/%d, want %d/%d", label,
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	if got.HasInEdges() != want.HasInEdges() {
		t.Fatalf("%s: HasInEdges %v, want %v", label, got.HasInEdges(), want.HasInEdges())
	}
	n := want.NumVertices()
	buf := make([]VertexID, 0, 8)
	for u := 0; u < n; u++ {
		uid := VertexID(u)
		row := want.OutNeighbors(uid)
		if d := got.OutDegree(uid); d != len(row) {
			t.Fatalf("%s: OutDegree(%d) = %d, want %d", label, u, d, len(row))
		}
		if g := got.OutNeighbors(uid); !slices.Equal(g, row) {
			t.Fatalf("%s: OutNeighbors(%d) = %v, want %v", label, u, g, row)
		}
		// A non-empty prefix proves AppendOutRow appends rather than
		// overwrites.
		buf = append(buf[:0], 7)
		if g := got.AppendOutRow(buf, uid); len(g) < 1 || g[0] != 7 || !slices.Equal(g[1:], row) {
			t.Fatalf("%s: AppendOutRow(%d) = %v, want prefix+%v", label, u, g, row)
		}
		for _, v := range row {
			if !got.HasEdge(uid, v) {
				t.Fatalf("%s: HasEdge(%d,%d) = false for a present edge", label, u, v)
			}
			// Probe the neighbourhood of each present edge for phantoms.
			for _, probe := range []VertexID{v - 1, v + 1} {
				if int(probe) < n && got.HasEdge(uid, probe) != want.HasEdge(uid, probe) {
					t.Fatalf("%s: HasEdge(%d,%d) disagrees with oracle", label, u, probe)
				}
			}
		}
		if len(row) == 0 && n > 0 && got.HasEdge(uid, VertexID(u%n)) {
			t.Fatalf("%s: HasEdge on an empty row", label)
		}
		if want.HasInEdges() {
			in := want.InNeighbors(uid)
			if d := got.InDegree(uid); d != len(in) {
				t.Fatalf("%s: InDegree(%d) = %d, want %d", label, u, d, len(in))
			}
			if g := got.InNeighbors(uid); !slices.Equal(g, in) {
				t.Fatalf("%s: InNeighbors(%d) = %v, want %v", label, u, g, in)
			}
			buf = append(buf[:0], 9)
			if g := got.AppendInRow(buf, uid); len(g) < 1 || g[0] != 9 || !slices.Equal(g[1:], in) {
				t.Fatalf("%s: AppendInRow(%d) = %v, want prefix+%v", label, u, g, in)
			}
		}
	}
	var wantEdges, gotEdges []Edge
	want.ForEachEdge(func(u, v VertexID) { wantEdges = append(wantEdges, Edge{u, v}) })
	got.ForEachEdge(func(u, v VertexID) { gotEdges = append(gotEdges, Edge{u, v}) })
	if !slices.Equal(wantEdges, gotEdges) {
		t.Fatalf("%s: ForEachEdge enumeration diverges from oracle", label)
	}
}

// TestPackedMatchesDigraph holds the packed in-memory representation — both
// PackGraph's direct encoding and the full write/view round trip in cheap
// and verifying modes — to the heap oracle on every accessor.
func TestPackedMatchesDigraph(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, tc := range []struct {
		name   string
		v, e   int
		withIn bool
	}{
		{"small", 16, 40, false},
		{"small with in-edges", 16, 40, true},
		{"hubs and isolated tail", 300, 4000, true},
		{"empty", 5, 0, true},
		{"zero vertices", 0, 0, false},
		{"larger", 2000, 30000, false},
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
			p := PackGraph(g)
			viewEqual(t, g, p, "PackGraph")
			dec, err := p.Decode()
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !graphEqual(g, dec) {
				t.Fatal("Decode round trip changed the graph")
			}

			var buf bytes.Buffer
			if err := WriteSnapshotOpts(&buf, g, SnapshotOptions{Packed: true}); err != nil {
				t.Fatal(err)
			}
			for _, verify := range []bool{false, true} {
				data := alignedBytes(int64(buf.Len()))
				copy(data, buf.Bytes())
				v, err := viewSnapshot(data, verify)
				if err != nil {
					t.Fatalf("viewSnapshot(verify=%v): %v", verify, err)
				}
				if _, ok := v.(*Packed); !ok {
					t.Fatalf("packed snapshot viewed as %T", v)
				}
				viewEqual(t, g, v, fmt.Sprintf("viewed packed (verify=%v)", verify))
			}
			// ReadSnapshot decodes packed snapshots to a plain CSR.
			rt, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !graphEqual(g, rt) {
				t.Fatal("packed snapshot heap round trip changed the graph")
			}
		})
	}
}

// TestViewedSnapshotMatchesHeap holds the in-place plain-CSR view (the mmap
// representation, exercised here over an aligned buffer and over a real
// file through OpenGraphFile) to the heap oracle.
func TestViewedSnapshotMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dir := t.TempDir()
	for _, withIn := range []bool{false, true} {
		for _, packed := range []bool{false, true} {
			name := fmt.Sprintf("in=%v packed=%v", withIn, packed)
			g := randomGraph(t, rng, 200, 3000, withIn)
			var buf bytes.Buffer
			if err := WriteSnapshotOpts(&buf, g, SnapshotOptions{Packed: packed}); err != nil {
				t.Fatal(err)
			}
			for _, verify := range []bool{false, true} {
				data := alignedBytes(int64(buf.Len()))
				copy(data, buf.Bytes())
				v, err := viewSnapshot(data, verify)
				if err != nil {
					t.Fatalf("%s verify=%v: %v", name, verify, err)
				}
				viewEqual(t, g, v, name)
			}
			path := filepath.Join(dir, fmt.Sprintf("g-%v-%v.sgr", withIn, packed))
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, opts := range []ReadOptions{{}, {Verify: true}, {NoMap: true}} {
				v, info, err := OpenGraphFile(path, opts)
				if err != nil {
					t.Fatalf("%s opts=%+v: %v", name, opts, err)
				}
				if info.Format != FormatSnapshot || info.Version != snapshotVersion || info.Packed != packed {
					t.Fatalf("%s: LoadInfo %+v", name, info)
				}
				if opts.NoMap && info.Mapped {
					t.Fatalf("%s: NoMap load reported mapped", name)
				}
				if !opts.NoMap && mmapSupported && !info.Mapped {
					t.Fatalf("%s: default load did not map", name)
				}
				viewEqual(t, g, v, fmt.Sprintf("%s opts=%+v", name, opts))
			}
		}
	}
}

// TestMapSnapshotConstantAllocation pins the mapped load's claim: opening a
// snapshot through OpenGraphFile's default mapped path costs O(1) heap
// allocation independent of edge count. A 16x bigger graph must not change
// the allocation count, and on mmap platforms the total bytes allocated per
// open stay far below the file size.
func TestMapSnapshotConstantAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dir := t.TempDir()
	write := func(name string, e int) (string, int64) {
		g := randomGraph(t, rng, e/10+2, e, false)
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, g); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path, int64(buf.Len())
	}
	smallPath, _ := write("small.sgr", 2000)
	bigPath, bigSize := write("big.sgr", 32000)
	measure := func(path string) float64 {
		return testing.AllocsPerRun(10, func() {
			g, _, err := OpenGraphFile(path, ReadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if g.NumVertices() == 0 {
				t.Fatal("empty graph")
			}
		})
	}
	small, big := measure(smallPath), measure(bigPath)
	// The open allocates a fixed handful of objects (file handle, header
	// buffer, struct): identical for both sizes, and small in absolute
	// terms so an accidental O(V) slice shows up loudly.
	if big > small {
		t.Errorf("allocations grew with edge count: %.1f at 32k edges vs %.1f at 2k", big, small)
	}
	if big > 64 {
		t.Errorf("mapped open costs %.1f allocations, want a constant handful", big)
	}
	if mmapSupported {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		g, _, err := OpenGraphFile(bigPath, ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if g.NumEdges() != 32000 && g.NumEdges() == 0 {
			t.Fatal("unexpected graph")
		}
		if allocated := int64(m1.TotalAlloc - m0.TotalAlloc); allocated > bigSize/8 {
			t.Errorf("mapped open allocated %d heap bytes for a %d-byte file; columns should alias the mapping", allocated, bigSize)
		}
	}
}

// TestMapShardFile: the mapped shard load must agree with ReadShard's heap
// load and report whether the zero-copy path was taken.
func TestMapShardFile(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	big := testShard()
	big.NumVertices = 5000
	big.Locals = big.Locals[:0]
	for v := 0; v < big.NumVertices; v += 1 + rng.Intn(3) {
		big.Locals = append(big.Locals, VertexID(v))
	}
	nl := len(big.Locals)
	big.Deg, big.Roles = make([]int32, nl), make([]uint8, nl)
	big.EdgeSrc, big.EdgeDst = big.EdgeSrc[:0], big.EdgeDst[:0]
	for i := range big.Locals {
		big.Deg[i] = int32(rng.Intn(9))
		big.Roles[i] = [...]uint8{0, RoleMaster, RoleMaster | RoleRemote}[rng.Intn(3)]
	}
	for i := 0; i < 4*nl; i++ {
		big.EdgeSrc = append(big.EdgeSrc, int32(rng.Intn(nl)))
		big.EdgeDst = append(big.EdgeDst, int32(rng.Intn(nl)))
	}
	slices.Sort(big.EdgeSrc) // sorted source runs, as every cut emits
	for i, si := range big.EdgeSrc {
		if big.EdgeDst[i] == si { // no self-loops, as every View guarantees
			big.EdgeDst[i] = (si + 1) % int32(nl)
		}
	}
	dir := t.TempDir()
	for i, sf := range []*ShardFile{testShard(), big} {
		var buf bytes.Buffer
		if err := WriteShard(&buf, sf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("g.sgr.%d", i))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		mappedShard, mapped, err := MapShardFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if mapped != mmapSupported {
			t.Errorf("shard %d: mapped=%v, mmapSupported=%v", i, mapped, mmapSupported)
		}
		heap, err := ReadShard(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(heap, mappedShard) {
			t.Errorf("shard %d: mapped load diverges from heap load", i)
		}
	}
}

// TestMapShardFileColumnsSurviveGC pins the lifetime contract of a mapped
// shard: the columns are plain slices a caller may keep past the ShardFile
// they came from, so the mapping must stay valid after the struct is
// collected. A munmap tied to the struct's GC would make the reads below
// fault.
func TestMapShardFileColumnsSurviveGC(t *testing.T) {
	sf := testShard()
	var buf bytes.Buffer
	if err := WriteShard(&buf, sf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.sgr.0")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var locals []VertexID
	var deg, edgeSrc, edgeDst []int32
	func() {
		mapped, _, err := MapShardFile(path)
		if err != nil {
			t.Fatal(err)
		}
		locals, deg = mapped.Locals, mapped.Deg
		edgeSrc, edgeDst = mapped.EdgeSrc, mapped.EdgeDst
	}()
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var sum int64
	for i := range edgeSrc {
		sum += int64(edgeSrc[i]) + int64(edgeDst[i])
	}
	for i := range locals {
		sum += int64(locals[i]) + int64(deg[i])
	}
	want, err := ReadShard(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var wantSum int64
	for i := range want.EdgeSrc {
		wantSum += int64(want.EdgeSrc[i]) + int64(want.EdgeDst[i])
	}
	for i := range want.Locals {
		wantSum += int64(want.Locals[i]) + int64(want.Deg[i])
	}
	if sum != wantSum {
		t.Fatalf("aliased columns read %d after GC, want %d", sum, wantSum)
	}
}

package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// readEdgeListReference is the sequential reader the streaming ingester
// replaced (buffer every edge, then Build), kept verbatim as the oracle the
// parallel path must match bit for bit. It predates the "# vertices:"
// header, so oracle comparisons use header-free inputs.
func readEdgeListReference(r io.Reader, opts ReadOptions) (*Digraph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	remap := make(map[uint64]VertexID)
	maxID := uint64(0)
	intern := func(raw uint64) VertexID {
		if opts.PreserveIDs {
			if raw > maxID {
				maxID = raw
			}
			return VertexID(raw)
		}
		if id, ok := remap[raw]; ok {
			return id
		}
		id := VertexID(len(remap))
		remap[raw] = id
		return id
	}

	var edges []Edge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %w", lineNo, fields[0], err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q: %w", lineNo, fields[1], err)
		}
		edges = append(edges, Edge{intern(src), intern(dst)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scan: %w", err)
	}
	numVertices := len(remap)
	if opts.PreserveIDs {
		numVertices = 0
		if len(edges) > 0 {
			numVertices = int(maxID) + 1
		}
	}
	b := NewBuilder(numVertices).
		Symmetrize(opts.Symmetrize).
		WithInEdges(opts.WithInEdges)
	b.Grow(len(edges))
	for _, e := range edges {
		b.AddEdge(e.Src, e.Dst)
	}
	return b.Build()
}

// graphEqual compares two graphs structurally, including the reverse
// adjacency when either carries one.
func graphEqual(a, b *Digraph) bool {
	return a.numVertices == b.numVertices &&
		slices.Equal(a.outOff, b.outOff) &&
		slices.Equal(a.outAdj, b.outAdj) &&
		slices.Equal(a.inOff, b.inOff) &&
		slices.Equal(a.inAdj, b.inAdj)
}

// randomEdgeList renders a messy but valid edge list: sparse IDs, duplicate
// edges, self-loops, comments, blank lines, stray whitespace and extra
// fields (weighted-SNAP style). No "# vertices:" header — the oracle
// predates it.
func randomEdgeList(rng *rand.Rand, edges int, sparse bool) string {
	var sb strings.Builder
	sb.WriteString("# random test graph\n% alt comment\n\n")
	// The sparse space exercises the remap; dense IDs keep PreserveIDs
	// trials sane (preserve mode allocates O(maxID) by definition).
	idSpace := []uint64{0, 1, 2, 3, 5, 7, 100, 101, 731, 997, 4095}
	if sparse {
		idSpace = append(idSpace, 65536, 1<<20, 1<<32-1)
	}
	sep := []string{" ", "\t", "  ", " \t ", "\t\t"}
	for i := 0; i < edges; i++ {
		u := idSpace[rng.Intn(len(idSpace))]
		v := idSpace[rng.Intn(len(idSpace))]
		if rng.Intn(8) == 0 {
			u = uint64(rng.Intn(50)) // denser region for duplicates
			v = uint64(rng.Intn(50))
		}
		if rng.Intn(4) == 0 {
			sb.WriteString(sep[rng.Intn(len(sep))]) // leading whitespace
		}
		fmt.Fprintf(&sb, "%d%s%d", u, sep[rng.Intn(len(sep))], v)
		switch rng.Intn(5) {
		case 0:
			fmt.Fprintf(&sb, " %.3f", rng.Float64()) // weight field, ignored
		case 1:
			sb.WriteString("\t17 bogus extra") // arbitrary extra fields
		}
		if rng.Intn(6) == 0 {
			sb.WriteString("   ") // trailing whitespace
		}
		sb.WriteString("\n")
		if rng.Intn(10) == 0 {
			sb.WriteString("# interior comment\n\n")
		}
	}
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&sb, "%d %d", rng.Intn(40), rng.Intn(40)) // no trailing \n
	}
	return sb.String()
}

// TestIngestMatchesReference holds the streaming parallel ingester to the
// sequential oracle across option combinations and worker counts,
// including forced multi-shard parses of small inputs.
func TestIngestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		for _, sym := range []bool{false, true} {
			for _, inE := range []bool{false, true} {
				for _, preserve := range []bool{false, true} {
					in := randomEdgeList(rng, 5+rng.Intn(400), !preserve)
					opts := ReadOptions{Symmetrize: sym, WithInEdges: inE, PreserveIDs: preserve}
					want, err := readEdgeListReference(strings.NewReader(in), opts)
					if err != nil {
						t.Fatalf("reference: %v", err)
					}
					for _, workers := range []int{1, 2, 3, 7} {
						opts.Workers = workers
						got, err := ReadEdgeList(strings.NewReader(in), opts)
						if err != nil {
							t.Fatalf("trial %d sym=%v inE=%v preserve=%v workers=%d: %v",
								trial, sym, inE, preserve, workers, err)
						}
						if !graphEqual(got, want) {
							t.Fatalf("trial %d sym=%v inE=%v preserve=%v workers=%d: graphs differ:\n got %s\nwant %s\ninput:\n%s",
								trial, sym, inE, preserve, workers, got, want, in)
						}
					}
				}
			}
		}
	}
}

// TestIngestTinyInputs pins the edge cases the sharding logic must not
// mangle: empty input, missing trailing newline, loops-only, single bytes.
func TestIngestTinyInputs(t *testing.T) {
	for _, in := range []string{
		"", "\n", "#\n", "# c", "0 1", "0 1\n", "7 7\n", "7 7", " \t \n",
		"0 1\n2 3", "%\n0 1\r\n", "\r\n", "0\t1\r\n",
	} {
		for _, preserve := range []bool{false, true} {
			opts := ReadOptions{PreserveIDs: preserve}
			want, err := readEdgeListReference(strings.NewReader(in), opts)
			if err != nil {
				t.Fatalf("reference %q: %v", in, err)
			}
			for _, workers := range []int{1, 4} {
				opts.Workers = workers
				got, err := ReadEdgeList(strings.NewReader(in), opts)
				if err != nil {
					t.Fatalf("%q workers=%d: %v", in, workers, err)
				}
				if !graphEqual(got, want) {
					t.Errorf("%q preserve=%v workers=%d: got %s want %s", in, preserve, workers, got, want)
				}
			}
		}
	}
}

// TestIngestLongLines: the old bufio.Scanner path died at 1 MiB with a bare
// "token too long"; the chunked scanner must parse lines of any length
// (here, a >2 MiB comment and a >2 MiB run of ignored extra fields).
func TestIngestLongLines(t *testing.T) {
	long := strings.Repeat("x", 2<<20)
	in := "# " + long + "\n1 2 " + long + "\n3 4\n"
	g, err := ReadEdgeList(strings.NewReader(in), ReadOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 2 {
		t.Fatalf("got %s, want V=4 E=2", g)
	}
}

// TestIngestErrorLineNumbers: parse failures must carry the 1-based line
// number of the earliest offending line, whatever shard found it.
func TestIngestErrorLineNumbers(t *testing.T) {
	tests := []struct {
		name, in, wantSub string
	}{
		{"bad target line 3", "# c\n0 1\n0 x\n2 3\n", "line 3"},
		{"single field line 4", "0 1\n1 2\n\n42\n", "line 4"},
		{"too large line 1", "99999999999 1\n", "line 1"},
		{"negative line 2", "1 2\n-1 2\n", "line 2"},
		{"earliest wins", "0 x\n1 2\n3 y\n", "line 1"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				_, err := ReadEdgeList(strings.NewReader(tt.in), ReadOptions{Workers: workers})
				if err == nil {
					t.Fatalf("workers=%d: want error", workers)
				}
				if !strings.Contains(err.Error(), tt.wantSub) {
					t.Errorf("workers=%d: error %q does not mention %q", workers, err, tt.wantSub)
				}
			}
		})
	}
}

// TestIngestNoEdgeListIntermediate pins the ingester's memory model: total
// bytes allocated while parsing must stay close to the CSR being built
// (scatter layout + final arrays ≈ 8 bytes per edge) — far below what any
// []Edge intermediate (8 more bytes per edge, plus append growth and the
// builder's own copies) would cost. The old reader measured ≥ 24 bytes per
// edge here.
func TestIngestNoEdgeListIntermediate(t *testing.T) {
	const v, e = 4096, 300_000
	rng := rand.New(rand.NewSource(3))
	var sb strings.Builder
	for i := 0; i < e; i++ {
		fmt.Fprintf(&sb, "%d\t%d\n", rng.Intn(v), rng.Intn(v))
	}
	data := []byte(sb.String())
	opts := ReadOptions{PreserveIDs: true, Workers: 2}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g, err := readEdgeListAt(bytes.NewReader(data), 0, int64(len(data)), opts)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != v {
		t.Fatalf("V = %d, want %d", g.NumVertices(), v)
	}
	allocated := m1.TotalAlloc - m0.TotalAlloc
	// Scatter layout (4 B/edge) + compacted outAdj (≤ 4 B/edge) + offsets,
	// cursors, counters and chunk buffers. 12 B/edge + fixed slack is well
	// above that and well below any path that still buffers an edge list.
	budget := uint64(12*e + 64*v + 4<<20)
	if allocated > budget {
		t.Errorf("parse allocated %d bytes (budget %d): an O(E) intermediate is back", allocated, budget)
	}
}

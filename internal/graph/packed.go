package graph

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Packed is a read-only View whose adjacency is stored compressed: row u
// occupies out[outOff[u]:outOff[u+1]], encoded as uvarint(degree) followed
// by one uvarint per neighbour holding the gap to the previous neighbour.
// The first gap is taken against an implicit -1, so every gap in a valid
// row is ≥ 1 and a zero gap can never decode into a sorted row — the codec
// has no way to express duplicates or descending rows, which is what makes
// corruption detectable by decoding alone. Power-law rows with clustered
// IDs compress to 1-2 bytes per edge instead of 4.
//
// Rows decode on demand into caller buffers (AppendOutRow is the seam the
// engine layers already amortise); nothing is materialised at load, so a
// packed snapshot serves queries in whatever the blob size is. The trade is
// O(row bytes) sequential decode per access instead of O(1) slicing, and
// HasEdge degrades from binary search to an early-exit linear scan. AsCSR
// deliberately returns false for *Packed, keeping the monomorphic CSR fast
// paths for plain graphs while everything else falls back to the View seam.
type Packed struct {
	numVertices int
	numEdges    int64
	outOff      []int64 // len numVertices+1; byte offsets into out
	out         []byte
	inOff       []int64 // optional reverse adjacency, same encoding
	in          []byte
}

// PackGraph compresses g into a Packed view — the in-memory analogue of
// writing a packed snapshot and reopening it. The reverse adjacency is
// packed too when g carries one.
func PackGraph(g *Digraph) *Packed {
	outOff := g.outOff
	if outOff == nil {
		outOff = []int64{0}
	}
	p := &Packed{numVertices: g.numVertices, numEdges: int64(g.NumEdges())}
	p.outOff, p.out = packColumn(outOff, g.outAdj)
	if g.HasInEdges() {
		p.inOff, p.in = packColumn(g.inOff, g.inAdj)
	}
	return p
}

func packColumn(off []int64, adj []VertexID) ([]int64, []byte) {
	poff := packedOffsets(off, adj)
	blob := make([]byte, 0, poff[len(poff)-1])
	for u := 0; u+1 < len(off); u++ {
		blob = appendPackedRow(blob, adj[off[u]:off[u+1]])
	}
	return poff, blob
}

func (p *Packed) NumVertices() int { return p.numVertices }
func (p *Packed) NumEdges() int    { return int(p.numEdges) }

// String summarises the packed graph for logs.
func (p *Packed) String() string {
	return fmt.Sprintf("packed{V=%d E=%d bytes=%d}", p.numVertices, p.numEdges, len(p.out)+len(p.in))
}

// row returns u's encoded block.
func (p *Packed) row(u VertexID) []byte { return p.out[p.outOff[u]:p.outOff[u+1]] }

// OutDegree decodes the row's degree prefix: O(1), no row scan.
func (p *Packed) OutDegree(u VertexID) int { return packedDegree(p.row(u)) }

// OutNeighbors decodes u's row into a fresh slice. Hot paths should use
// AppendOutRow with a reused buffer instead.
func (p *Packed) OutNeighbors(u VertexID) []VertexID { return p.AppendOutRow(nil, u) }

// AppendOutRow decodes u's row, appending to buf.
func (p *Packed) AppendOutRow(buf []VertexID, u VertexID) []VertexID {
	return appendPackedNeighbors(buf, p.row(u))
}

// HasEdge scans u's row with early exit at the first neighbour ≥ v; rows
// average a handful of bytes, so this stays competitive with the CSR's
// binary search except on hubs.
func (p *Packed) HasEdge(u, v VertexID) bool {
	b := p.row(u)
	deg, k := binary.Uvarint(b)
	if k <= 0 {
		return false
	}
	prev := int64(-1)
	for i := uint64(0); i < deg && k < len(b); i++ {
		d, m := binary.Uvarint(b[k:])
		if m <= 0 {
			return false
		}
		k += m
		prev += int64(d)
		if prev >= int64(v) {
			return prev == int64(v)
		}
	}
	return false
}

// ForEachEdge visits every edge in (src, dst) order, decoding row by row
// through one reused buffer.
func (p *Packed) ForEachEdge(fn func(u, v VertexID)) {
	buf := make([]VertexID, 0, 64)
	for u := 0; u < p.numVertices; u++ {
		buf = p.AppendOutRow(buf[:0], VertexID(u))
		for _, v := range buf {
			fn(VertexID(u), v)
		}
	}
}

// HasInEdges reports whether the packed reverse adjacency is present.
func (p *Packed) HasInEdges() bool { return p.inOff != nil }

func (p *Packed) inRow(u VertexID) []byte { return p.in[p.inOff[u]:p.inOff[u+1]] }

// InDegree decodes the in-row's degree prefix. It panics unless the
// snapshot carried in-adjacency sections.
func (p *Packed) InDegree(u VertexID) int { return packedDegree(p.inRow(u)) }

// InNeighbors decodes u's in-row into a fresh slice.
func (p *Packed) InNeighbors(u VertexID) []VertexID { return p.AppendInRow(nil, u) }

// AppendInRow decodes u's in-row, appending to buf.
func (p *Packed) AppendInRow(buf []VertexID, u VertexID) []VertexID {
	return appendPackedNeighbors(buf, p.inRow(u))
}

// Decode materialises the packed graph as a plain heap CSR, fully
// validating every row on the way (a Packed opened without Verify has only
// had its offset columns checked). Consumers that need *Digraph-only
// machinery — delta overlays, eval splits, fleet packing — decode once and
// keep the CSR.
func (p *Packed) Decode() (*Digraph, error) {
	g := &Digraph{numVertices: p.numVertices}
	var err error
	if g.outOff, g.outAdj, err = decodePackedColumn(p.numVertices, p.outOff, p.out, p.numEdges, "out"); err != nil {
		return nil, err
	}
	if p.HasInEdges() {
		if g.inOff, g.inAdj, err = decodePackedColumn(p.numVertices, p.inOff, p.in, p.numEdges, "in"); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// ---- row codec ----

// uvarintLen returns the encoded size of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// packedRowLen returns the encoded size of one row block.
func packedRowLen(row []VertexID) int {
	n := uvarintLen(uint64(len(row)))
	prev := int64(-1)
	for _, v := range row {
		n += uvarintLen(uint64(int64(v) - prev))
		prev = int64(v)
	}
	return n
}

// packedOffsets sizes every row block of a CSR without encoding anything,
// returning the byte-offset column of the packed layout (so packing can
// stream the blob instead of buffering it).
func packedOffsets(off []int64, adj []VertexID) []int64 {
	poff := make([]int64, len(off))
	var total int64
	for u := 0; u+1 < len(off); u++ {
		total += int64(packedRowLen(adj[off[u]:off[u+1]]))
		poff[u+1] = total
	}
	return poff
}

// appendPackedRow encodes one sorted row as a degree prefix plus gap
// varints.
func appendPackedRow(dst []byte, row []VertexID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	prev := int64(-1)
	for _, v := range row {
		dst = binary.AppendUvarint(dst, uint64(int64(v)-prev))
		prev = int64(v)
	}
	return dst
}

// packedDegree reads a row block's degree prefix, clamped to what the
// block's bytes could actually hold so a corrupt prefix (possible only on
// unverified loads) cannot report absurd degrees.
func packedDegree(b []byte) int {
	deg, k := binary.Uvarint(b)
	if k <= 0 {
		return 0
	}
	if rest := uint64(len(b) - k); deg > rest {
		deg = rest // every neighbour costs at least one byte
	}
	return int(deg)
}

// appendPackedNeighbors decodes one row block into buf. Work and
// allocation are bounded by the block's byte length regardless of what the
// degree prefix claims, so a corrupt block yields a short row, never a
// huge allocation or a panic.
func appendPackedNeighbors(buf []VertexID, b []byte) []VertexID {
	deg, k := binary.Uvarint(b)
	if k <= 0 {
		return buf
	}
	if rest := uint64(len(b) - k); deg > rest {
		deg = rest
	}
	if need := len(buf) + int(deg); cap(buf) < need {
		grown := make([]VertexID, len(buf), need)
		copy(grown, buf)
		buf = grown
	}
	prev := int64(-1)
	for i := uint64(0); i < deg && k < len(b); i++ {
		d, m := binary.Uvarint(b[k:])
		if m <= 0 {
			break
		}
		k += m
		prev += int64(d)
		buf = append(buf, VertexID(prev))
	}
	return buf
}

// decodePackedRow strictly decodes vertex u's row block into dst (when
// non-nil, it must have room for the declared degree): the degree prefix
// must match the gap count, every gap must be ≥ 1, every neighbour inside
// [0, n) and other than u, and the block consumed exactly. Returns the
// decoded degree.
func decodePackedRow(b []byte, n, u int, dst []VertexID) (int, error) {
	deg, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, fmt.Errorf("bad degree prefix")
	}
	if rest := uint64(len(b) - k); deg > rest {
		return 0, fmt.Errorf("degree %d exceeds the row's %d bytes", deg, rest)
	}
	prev := int64(-1)
	for i := uint64(0); i < deg; i++ {
		d, m := binary.Uvarint(b[k:])
		// A valid gap is in [1, n]: neighbours live in [0, n) and rows
		// ascend, so bounding d here keeps prev from ever overflowing.
		if m <= 0 || d == 0 || d > uint64(n) {
			return 0, fmt.Errorf("bad neighbour gap")
		}
		k += m
		prev += int64(d)
		if prev >= int64(n) {
			return 0, fmt.Errorf("neighbour %d of %d vertices", prev, n)
		}
		if prev == int64(u) {
			return 0, fmt.Errorf("self-loop")
		}
		if dst != nil {
			dst[i] = VertexID(prev)
		}
	}
	if k != len(b) {
		return 0, fmt.Errorf("%d trailing bytes", len(b)-k)
	}
	return int(deg), nil
}

// validatePackedRows fully decodes every row block in parallel, checking
// the row invariants and that the degrees sum to the header's edge count.
// poff must already have passed validateOffsets.
func validatePackedRows(n int, poff []int64, blob []byte, edges int64, what string) error {
	var mu sync.Mutex
	var vErr error
	var total atomic.Int64
	parallelRanges(runtime.GOMAXPROCS(0), n, func(lo, hi int) {
		var sum int64
		for u := lo; u < hi; u++ {
			deg, err := decodePackedRow(blob[poff[u]:poff[u+1]], n, u, nil)
			if err != nil {
				mu.Lock()
				if vErr == nil {
					vErr = fmt.Errorf("graph: snapshot: %s-adjacency of vertex %d: %v", what, u, err)
				}
				mu.Unlock()
				return
			}
			sum += int64(deg)
		}
		total.Add(sum)
	})
	if vErr != nil {
		return vErr
	}
	if got := total.Load(); got != edges {
		return fmt.Errorf("graph: snapshot: %s-adjacency degrees sum to %d, header says %d", what, got, edges)
	}
	return nil
}

// decodePackedColumn materialises one packed column as CSR arrays with
// full validation: a cheap parallel degree-prefix pass sizes the offsets,
// then a parallel row decode fills the adjacency (any prefix that lied is
// caught by the strict per-row decode).
func decodePackedColumn(n int, poff []int64, blob []byte, edges int64, what string) ([]int64, []VertexID, error) {
	if err := validateOffsets(n, poff, int64(len(blob)), what); err != nil {
		return nil, nil, err
	}
	off := make([]int64, n+1)
	var mu sync.Mutex
	var vErr error
	record := func(u int, err error) {
		mu.Lock()
		if vErr == nil {
			vErr = fmt.Errorf("graph: snapshot: %s-adjacency of vertex %d: %v", what, u, err)
		}
		mu.Unlock()
	}
	parallelRanges(runtime.GOMAXPROCS(0), n, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			b := blob[poff[u]:poff[u+1]]
			deg, k := binary.Uvarint(b)
			if k <= 0 || deg > uint64(len(b)-k) {
				record(u, fmt.Errorf("bad degree prefix"))
				return
			}
			off[u+1] = int64(deg)
		}
	})
	if vErr != nil {
		return nil, nil, vErr
	}
	var total int64
	for u := 0; u < n; u++ {
		total += off[u+1]
		off[u+1] = total
	}
	if total != edges {
		return nil, nil, fmt.Errorf("graph: snapshot: %s-adjacency degrees sum to %d, header says %d", what, total, edges)
	}
	adj := make([]VertexID, total)
	parallelRanges(runtime.GOMAXPROCS(0), n, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			if _, err := decodePackedRow(blob[poff[u]:poff[u+1]], n, u, adj[off[u]:off[u+1]]); err != nil {
				record(u, err)
				return
			}
		}
	})
	if vErr != nil {
		return nil, nil, vErr
	}
	return off, adj, nil
}

package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"unsafe"
)

// Binary CSR snapshot format (.sgr).
//
// SNAP ships binary graph snapshots because re-parsing a multi-gigabyte
// text edge list before every run is where large-graph pipelines lose
// their time; this is the same idea for our CSR. The layout mirrors the
// in-memory Digraph exactly, so loading is a sequential read that
// materialises the final slices directly — no per-edge allocation, no
// remap, no edge-list intermediate, no re-sort.
//
// Layout (all integers little-endian):
//
//	magic     [8]byte "SNAPLSGR"
//	version   uint32 (2; version-1 files are rejected with errSnapshotV1)
//	flags     uint32 (bit 0: in-adjacency sections present,
//	                  bit 1: packed delta-varint adjacency)
//	vertices  uint64
//	edges     uint64
//	headerCRC uint32 — CRC-32C of the 32 bytes above
//
// followed by the sections, in order: outOff (vertices+1 × int64), outAdj
// (edges × uint32) and, when flagged, inOff and inAdj. Each section is
//
//	padding — zero bytes aligning the length prefix to 8
//	length  uint64 — payload bytes; must match the header's counts
//	payload
//	crc     uint32 — CRC-32C of the payload
//
// The header is 36 bytes and every section start is padded to an 8-byte
// boundary, so each payload begins at a file offset that is a multiple of 8.
// That is what makes snapshots viewable in place: mmap the file (or read it
// into one 8-aligned buffer) and outOff []int64 / outAdj []VertexID alias the
// payload bytes directly, with zero per-edge work on load — see
// OpenGraphFile.
//
// With the packed-adjacency flag the adjacency sections hold delta-varint
// row blocks instead of raw uint32 columns and the offset sections index
// bytes rather than elements; such snapshots surface as a *Packed view
// (see packed.go).
//
// Every heap load (ReadSnapshot, or OpenGraphFile with NoMap) reads the
// file into one aligned image and ends with a full structural validation
// (monotone offsets, strictly increasing in-range rows without
// self-loops), so a corrupt or hand-made file is rejected here rather than
// poisoning binary searches later; the mapped load path defers the
// O(edges) row checks behind ReadOptions.Verify but always validates the
// offset columns, which is what keeps row slicing memory-safe. Trailing
// bytes after the last section are ignored.
const (
	snapshotMagic       = "SNAPLSGR"
	snapshotVersion     = 2
	snapshotFlagInEdges = 1 << 0
	snapshotFlagPacked  = 1 << 1
	snapshotHeaderLen   = 36
	snapshotChunk       = 256 << 10 // packed-row write batch
	snapshotAlign       = 8
)

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// errSnapshotV1 rejects the retired unpadded version-1 layout.
var errSnapshotV1 = errors.New("graph: snapshot: format v1 is no longer readable; regenerate with `snaple pack` from the source edge list")

// SnapshotOptions configures WriteSnapshotOpts.
type SnapshotOptions struct {
	// Packed stores each adjacency row as a delta-varint block (format
	// flag bit 1): typically 2-4x smaller for graphs with clustered IDs,
	// at the cost of O(row bytes) decode per access. Readers surface such
	// snapshots as a *Packed view (or decode them to a CSR on demand).
	Packed bool
}

// WriteSnapshot writes g as a binary CSR snapshot (format version 2, plain
// adjacency). The reverse adjacency is included when g carries one, so
// ReadSnapshot reproduces g bit for bit.
func WriteSnapshot(w io.Writer, g *Digraph) error {
	return WriteSnapshotOpts(w, g, SnapshotOptions{})
}

// WriteSnapshotOpts is WriteSnapshot with explicit encoding options.
func WriteSnapshotOpts(w io.Writer, g *Digraph, o SnapshotOptions) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := &countingWriter{w: bw}
	var hdr [snapshotHeaderLen]byte
	copy(hdr[:8], snapshotMagic)
	binary.LittleEndian.PutUint32(hdr[8:], snapshotVersion)
	var flags uint32
	if g.HasInEdges() {
		flags |= snapshotFlagInEdges
	}
	if o.Packed {
		flags |= snapshotFlagPacked
	}
	binary.LittleEndian.PutUint32(hdr[12:], flags)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(g.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(g.NumEdges()))
	binary.LittleEndian.PutUint32(hdr[32:], crc32.Checksum(hdr[:32], snapshotCRC))
	if _, err := cw.Write(hdr[:]); err != nil {
		return fmt.Errorf("graph: snapshot: write header: %w", err)
	}
	outOff := g.outOff
	if outOff == nil {
		outOff = []int64{0} // zero-value Digraph
	}
	if err := writeSnapshotPair(cw, outOff, g.outAdj, o.Packed); err != nil {
		return err
	}
	if g.HasInEdges() {
		if err := writeSnapshotPair(cw, g.inOff, g.inAdj, o.Packed); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: snapshot: flush: %w", err)
	}
	return nil
}

// writeSnapshotPair emits one adjacency direction: the offset section and
// the adjacency section, each padded to an 8-aligned start.
func writeSnapshotPair(cw *countingWriter, off []int64, adj []VertexID, packed bool) error {
	poff := off
	if packed {
		poff = packedOffsets(off, adj)
	}
	if err := cw.pad(); err != nil {
		return err
	}
	if err := writeColumn(cw, poff); err != nil {
		return err
	}
	if err := cw.pad(); err != nil {
		return err
	}
	if packed {
		return writePackedAdjSection(cw, off, adj, poff[len(poff)-1])
	}
	return writeColumn(cw, adj)
}

// countingWriter tracks the absolute file offset so section starts can be
// padded to the 8-byte alignment the in-place viewer relies on.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	m, err := c.w.Write(p)
	c.n += int64(m)
	return m, err
}

var snapshotPadding [snapshotAlign]byte

// pad writes the zero bytes that align the next write to an 8-byte file
// offset.
func (c *countingWriter) pad() error {
	if k := int(-c.n & (snapshotAlign - 1)); k > 0 {
		if _, err := c.Write(snapshotPadding[:k]); err != nil {
			return fmt.Errorf("graph: snapshot: write padding: %w", err)
		}
	}
	return nil
}

// writeColumn frames one fixed-width column as a section; viewColumn (and,
// for a byte column, the section itself) is its reader.
func writeColumn[T int32 | int64 | VertexID | byte](w io.Writer, col []T) error {
	b := columnBytes(col)
	return writeSection(w, int64(len(b)), func(yield func([]byte) error) error { return yield(b) })
}

// columnBytes is col's little-endian encoding: the column's own memory on
// little-endian hosts, a byte-swapped copy elsewhere.
func columnBytes[T int32 | int64 | VertexID | byte](col []T) []byte {
	if len(col) == 0 {
		return nil
	}
	size := int(unsafe.Sizeof(col[0]))
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&col[0])), len(col)*size)
	if hostLittleEndian || size == 1 {
		return raw
	}
	out := make([]byte, len(raw))
	for i := range out {
		out[i] = raw[i-i%size+size-1-i%size]
	}
	return out
}

// writePackedAdjSection streams the delta-varint row blocks of the given
// CSR, re-encoding on the fly (packedOffsets already sized the payload), so
// packing never materialises the whole blob.
func writePackedAdjSection(w io.Writer, off []int64, adj []VertexID, payloadLen int64) error {
	return writeSection(w, payloadLen, func(yield func([]byte) error) error {
		out := make([]byte, 0, snapshotChunk)
		for u := 0; u+1 < len(off); u++ {
			out = appendPackedRow(out, adj[off[u]:off[u+1]])
			if len(out) >= snapshotChunk/2 {
				if err := yield(out); err != nil {
					return err
				}
				out = out[:0]
			}
		}
		if len(out) > 0 {
			return yield(out)
		}
		return nil
	})
}

// writeSection frames one section: length prefix, payload streamed through
// emit's yield (checksummed as it passes), CRC trailer.
func writeSection(w io.Writer, payloadLen int64, emit func(yield func([]byte) error) error) error {
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(payloadLen))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return fmt.Errorf("graph: snapshot: write section: %w", err)
	}
	crc := uint32(0)
	err := emit(func(p []byte) error {
		crc = crc32.Update(crc, snapshotCRC, p)
		_, werr := w.Write(p)
		return werr
	})
	if err != nil {
		return fmt.Errorf("graph: snapshot: write section: %w", err)
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc)
	if _, err := w.Write(crcBuf[:]); err != nil {
		return fmt.Errorf("graph: snapshot: write section: %w", err)
	}
	return nil
}

// snapshotHeader is the parsed fixed header of a .sgr file.
type snapshotHeader struct {
	version  uint32
	flags    uint32
	vertices int
	edges    int64
}

func (h snapshotHeader) packed() bool  { return h.flags&snapshotFlagPacked != 0 }
func (h snapshotHeader) inEdges() bool { return h.flags&snapshotFlagInEdges != 0 }

// parseSnapshotHeader validates the 36-byte fixed header: magic, the
// supported version, known flags, the header checksum and plausible counts.
func parseSnapshotHeader(hdr []byte) (snapshotHeader, error) {
	var h snapshotHeader
	if len(hdr) < snapshotHeaderLen {
		return h, fmt.Errorf("graph: snapshot: truncated header (%d bytes)", len(hdr))
	}
	if string(hdr[:8]) != snapshotMagic {
		return h, fmt.Errorf("graph: snapshot: bad magic %q", hdr[:8])
	}
	h.version = binary.LittleEndian.Uint32(hdr[8:])
	if h.version == 1 {
		return h, errSnapshotV1
	}
	if h.version != snapshotVersion {
		return h, fmt.Errorf("graph: snapshot: unsupported version %d (want %d)", h.version, snapshotVersion)
	}
	h.flags = binary.LittleEndian.Uint32(hdr[12:])
	if h.flags&^(snapshotFlagInEdges|snapshotFlagPacked) != 0 {
		return h, fmt.Errorf("graph: snapshot: unknown flags %#x", h.flags)
	}
	if want, got := crc32.Checksum(hdr[:32], snapshotCRC), binary.LittleEndian.Uint32(hdr[32:]); want != got {
		return h, fmt.Errorf("graph: snapshot: header checksum mismatch")
	}
	v64 := binary.LittleEndian.Uint64(hdr[16:])
	e64 := binary.LittleEndian.Uint64(hdr[24:])
	if v64 > 1<<32 {
		return h, fmt.Errorf("graph: snapshot: vertex count %d exceeds the 2^32 limit", v64)
	}
	if e64 > math.MaxInt64/8 {
		return h, fmt.Errorf("graph: snapshot: implausible edge count %d", e64)
	}
	h.vertices = int(v64)
	h.edges = int64(e64)
	return h, nil
}

// ReadSnapshot loads a binary CSR snapshot written by WriteSnapshot. The
// checksums and the structural invariants of every
// section are verified; any mismatch is an error, never a mangled graph.
// Packed-adjacency snapshots are decoded to a plain CSR here — use
// OpenGraphFile to keep them compressed in memory.
func ReadSnapshot(r io.Reader) (*Digraph, error) {
	data, err := readImage(r, snapshotImage)
	if err != nil {
		return nil, err
	}
	v, err := viewSnapshot(data, true)
	if err != nil {
		return nil, err
	}
	return HeapCSR(v)
}

// sourceLimit reports how many bytes the reader can still produce, when
// knowable (regular files and in-memory readers). A known limit lets
// readImage allocate exactly; an unknown one (-1) makes it grow with the
// bytes that arrive, so a lying header cannot force a huge allocation.
func sourceLimit(r io.Reader) int64 {
	switch src := r.(type) {
	case *os.File:
		if fi, err := src.Stat(); err == nil && fi.Mode().IsRegular() {
			if pos, err := src.Seek(0, io.SeekCurrent); err == nil {
				return fi.Size() - pos
			}
		}
	case *bytes.Reader:
		return int64(src.Len())
	}
	return -1
}

// validateCSR rejects structurally invalid CSR data: offsets must start at
// zero, be monotonically non-decreasing and end at len(adj), and every row
// must be strictly increasing with all values inside [0, n) and none equal
// to the row's own vertex (View's no-self-loop contract). HasEdge's
// binary search and the merge kernels in internal/core assume sorted
// duplicate-free rows, so a corrupt snapshot must fail here, not there.
func validateCSR(n int, off []int64, adj []VertexID, what string) error {
	if len(off) != n+1 || off[0] != 0 || off[n] != int64(len(adj)) {
		return fmt.Errorf("graph: snapshot: %s-offset endpoints invalid", what)
	}
	var mu sync.Mutex
	var vErr error
	record := func(err error) {
		mu.Lock()
		if vErr == nil {
			vErr = err
		}
		mu.Unlock()
	}
	parallelRanges(runtime.GOMAXPROCS(0), n, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			s, e := off[u], off[u+1]
			// s < 0 is checked here, not left to the previous row's s > e:
			// rows are validated concurrently, and this one must not index
			// adj[-1] before its neighbour records the error.
			if s < 0 || s > e || e > int64(len(adj)) {
				record(fmt.Errorf("graph: snapshot: %s-offsets not monotonic at vertex %d", what, u))
				return
			}
			for i := s; i < e; i++ {
				if int(adj[i]) >= n {
					record(fmt.Errorf("graph: snapshot: %s-adjacency of vertex %d references vertex %d of %d", what, u, adj[i], n))
					return
				}
				if int(adj[i]) == u {
					record(fmt.Errorf("graph: snapshot: %s-adjacency of vertex %d holds a self-loop", what, u))
					return
				}
				if i > s && adj[i] <= adj[i-1] {
					record(fmt.Errorf("graph: snapshot: %s-adjacency of vertex %d not strictly increasing", what, u))
					return
				}
			}
		}
	})
	return vErr
}

// validateOffsets checks the offset-column invariants alone: length n+1,
// off[0] == 0, off[n] == limit, monotone non-decreasing. It is the cheap
// O(vertices) half of validateCSR — the part that makes row slicing
// memory-safe — and is what the deferred-verification mapped load path
// always runs.
func validateOffsets(n int, off []int64, limit int64, what string) error {
	if len(off) != n+1 || off[0] != 0 || off[n] != limit {
		return fmt.Errorf("graph: snapshot: %s-offset endpoints invalid", what)
	}
	var mu sync.Mutex
	var vErr error
	parallelRanges(runtime.GOMAXPROCS(0), n, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			if off[u] > off[u+1] {
				mu.Lock()
				if vErr == nil {
					vErr = fmt.Errorf("graph: snapshot: %s-offsets not monotonic at vertex %d", what, u)
				}
				mu.Unlock()
				return
			}
		}
	})
	return vErr
}

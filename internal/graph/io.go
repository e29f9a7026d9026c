package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// WriteEdgeList writes g in the SNAP edge-list format used by the paper's
// datasets: one "src dst" pair per line, '#' comment headers first. The
// second header line, "# vertices: N", is machine-readable: ReadEdgeList
// honors it in PreserveIDs mode, so a write/read round trip preserves the
// vertex count even when the highest-ID vertices are isolated (without it
// the reader can only infer max(ID)+1 from the edges it sees, silently
// shrinking such graphs).
func WriteEdgeList(w io.Writer, g *Digraph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "# Directed graph: %d vertices, %d edges\n# %s %d\n",
		g.NumVertices(), g.NumEdges(), vertexHeaderTag, g.NumVertices()); err != nil {
		return fmt.Errorf("graph: write header: %w", err)
	}
	var err error
	buf := make([]byte, 0, 32)
	g.ForEachEdge(func(u, v VertexID) {
		if err != nil {
			return
		}
		buf = strconv.AppendUint(buf[:0], uint64(u), 10)
		buf = append(buf, '\t')
		buf = strconv.AppendUint(buf, uint64(v), 10)
		buf = append(buf, '\n')
		_, err = bw.Write(buf)
	})
	if err != nil {
		return fmt.Errorf("graph: write edge: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: flush: %w", err)
	}
	return nil
}

// ReadOptions configures ReadEdgeList.
type ReadOptions struct {
	// Symmetrize duplicates every edge in both directions (for undirected
	// inputs such as gowalla and orkut).
	Symmetrize bool
	// WithInEdges materialises the reverse adjacency.
	WithInEdges bool
	// PreserveIDs keeps raw vertex IDs instead of remapping them densely.
	// The vertex count is taken from the machine-readable "# vertices: N"
	// header when the file carries one (WriteEdgeList emits it), else
	// inferred as max(ID)+1 — which silently loses trailing isolated
	// vertices, the bug the header exists to fix. Only sensible for inputs
	// that are already dense, e.g. files produced by WriteEdgeList.
	PreserveIDs bool
	// Workers bounds the streaming parser's shard fan-out (0 = GOMAXPROCS,
	// capped so small inputs stay serial). The resulting graph is identical
	// for every value.
	Workers int
	// NoMap forces the heap load path for snapshots: the returned view owns
	// private memory with no mmap aliasing. Mutable consumers — live
	// serving, whose compaction rewrites the snapshot file in place — want
	// this; read-only consumers leave it off and share the page cache.
	NoMap bool
	// Verify runs the full structural-and-checksum validation even on the
	// mapped load path, which otherwise defers the O(edges) row checks and
	// validates only the header and offset columns. Heap loads
	// (ReadSnapshot, NoMap) always verify fully.
	Verify bool
}

// ReadEdgeList parses a SNAP-style edge list: whitespace-separated vertex-ID
// pairs, blank lines and lines starting with '#' or '%' ignored (except the
// "# vertices: N" header, see ReadOptions.PreserveIDs). Fields past the
// second — the weights or timestamps of weighted SNAP lists — are ignored.
// Vertex IDs may be sparse; they are remapped to a dense range in
// first-appearance order. Any ID is accepted up to 2^32-1.
//
// Regular files are parsed in place with the streaming parallel ingester
// (see ingest.go), whose peak memory is the CSR being built plus
// per-shard counters — no edge-list intermediate. Other readers are
// buffered in memory first, then parsed the same way.
func ReadEdgeList(r io.Reader, opts ReadOptions) (*Digraph, error) {
	switch src := r.(type) {
	case *os.File:
		if fi, err := src.Stat(); err == nil && fi.Mode().IsRegular() {
			if pos, err := src.Seek(0, io.SeekCurrent); err == nil {
				return readEdgeListAt(src, pos, fi.Size(), opts)
			}
		}
	case *bytes.Reader:
		// Already random-access: parse the unread portion in place.
		return readEdgeListAt(src, src.Size()-int64(src.Len()), src.Size(), opts)
	case *strings.Reader:
		return readEdgeListAt(src, src.Size()-int64(src.Len()), src.Size(), opts)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	return readEdgeListAt(bytes.NewReader(data), 0, int64(len(data)), opts)
}

// Format identifies an on-disk graph encoding.
type Format int

const (
	// FormatEdgeList is the SNAP-style text edge list.
	FormatEdgeList Format = iota
	// FormatSnapshot is the binary CSR snapshot (see WriteSnapshot).
	FormatSnapshot
)

// DetectFormat classifies a file by its leading bytes (8 suffice). Anything
// that does not carry the snapshot magic is treated as a text edge list.
func DetectFormat(prefix []byte) Format {
	if len(prefix) >= len(snapshotMagic) && string(prefix[:len(snapshotMagic)]) == snapshotMagic {
		return FormatSnapshot
	}
	return FormatEdgeList
}

// LoadInfo describes how OpenGraphFile loaded a graph.
type LoadInfo struct {
	// Format is the detected on-disk encoding.
	Format Format
	// Version is the snapshot format version (0 for edge lists).
	Version int
	// Mapped reports that the view's columns alias a read-only mmap of the
	// file rather than heap memory.
	Mapped bool
	// Packed reports that the adjacency stayed delta-varint compressed:
	// the View is a *Packed.
	Packed bool
	// Bytes is the on-disk size.
	Bytes int64
}

// String names the load path the way the commands report it: "parsed
// text", or the snapshot version, "mmap" or "heap", and whether the
// adjacency stayed packed.
func (i LoadInfo) String() string {
	if i.Version == 0 {
		return "parsed text"
	}
	how := "heap"
	if i.Mapped {
		how = "mmap"
	}
	s := fmt.Sprintf("snapshot v%d, %s", i.Version, how)
	if i.Packed {
		s += ", packed adjacency"
	}
	return s
}

// HeapCSR returns v as the heap-shaped CSR that evaluation splits and live
// overlays are built over: v itself for a plain CSR (mmap'd included) or a
// clean overlay of one, a one-time decode for packed adjacency.
func HeapCSR(v View) (*Digraph, error) {
	if g, ok := AsCSR(v); ok {
		return g, nil
	}
	if p, ok := v.(*Packed); ok {
		return p.Decode()
	}
	return nil, fmt.Errorf("graph: cannot materialise %s as a CSR", v)
}

// OpenGraphFile loads a graph from path like ReadGraphFile but preserves
// the storage representation instead of forcing a heap CSR: plain
// snapshots are mmap'd and viewed in place (unless ReadOptions.NoMap or
// the platform lacks mmap, which fall back to one aligned heap read),
// packed-adjacency snapshots come back as a decode-on-demand *Packed, and
// the LoadInfo reports which path was taken. This is the loader behind
// `snaple -in`, snaple-serve and snaple-bench's load rows.
//
// Snapshots bake Symmetrize and the ID space in at pack time, so
// Symmetrize is rejected for them; WithInEdges materialises the reverse
// adjacency when absent for CSR views and is an error for packed views
// without baked-in in-adjacency (decode via ReadGraphFile instead).
func OpenGraphFile(path string, opts ReadOptions) (View, LoadInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, LoadInfo{}, fmt.Errorf("graph: open %s: %w", path, err)
	}
	defer f.Close()
	var magic [len(snapshotMagic)]byte
	n, err := f.ReadAt(magic[:], 0)
	if (err != nil && err != io.EOF) || DetectFormat(magic[:n]) != FormatSnapshot {
		// A text edge list, or unseekable input (pipe, device) that only
		// the text decoder streams.
		g, err := ReadEdgeList(f, opts)
		if err != nil {
			return nil, LoadInfo{}, err
		}
		info := LoadInfo{Format: FormatEdgeList}
		if fi, serr := f.Stat(); serr == nil {
			info.Bytes = fi.Size()
		}
		return g, info, nil
	}
	if opts.Symmetrize {
		return nil, LoadInfo{}, fmt.Errorf("graph: %s: snapshots are packed directed; Symmetrize applies when packing", path)
	}
	return openSnapshotFile(f, path, opts)
}

// openSnapshotFile views an opened .sgr file in place: mmap'd, or one
// aligned heap read. The mapping is pinned for the life of the process:
// rows handed out by OutNeighbors/InNeighbors alias it and may outlive the
// view object, so unmapping on the view's collection could fault a live
// reader; consumers load a snapshot once and serve from it, so the leak is
// one bounded mapping per opened file.
func openSnapshotFile(f *os.File, path string, opts ReadOptions) (View, LoadInfo, error) {
	info := LoadInfo{Format: FormatSnapshot, Version: snapshotVersion}
	v, mapped, err := openImage(f, !opts.NoMap, snapshotImage, func(data []byte, mapped bool) (View, error) {
		info.Bytes = int64(len(data))
		return viewSnapshot(data, opts.Verify || !mapped)
	})
	if err != nil {
		return nil, info, fmt.Errorf("graph: %s: %w", path, err)
	}
	info.Mapped = mapped
	_, info.Packed = v.(*Packed)
	return finishSnapshotView(v, info, opts, path)
}

// finishSnapshotView applies WithInEdges to a freshly loaded snapshot view.
func finishSnapshotView(v View, info LoadInfo, opts ReadOptions, path string) (View, LoadInfo, error) {
	if opts.WithInEdges && !v.HasInEdges() {
		g, ok := v.(*Digraph)
		if !ok {
			return nil, info, fmt.Errorf("graph: %s: packed snapshot carries no in-adjacency; re-pack with in-edges or decode to a heap CSR first", path)
		}
		g.buildInAdjacency()
	}
	return v, info, nil
}

// ReadGraphFile loads a graph from path in either supported on-disk format,
// detected by magic bytes: a binary CSR snapshot or a text edge list. opts
// applies to the text decoder; snapshots bake Symmetrize and the ID space
// in at pack time, so Symmetrize is rejected for them and WithInEdges
// materialises the reverse adjacency only when the file does not already
// carry one. The result is always a plain CSR: plain snapshots arrive
// with mmap-aliased columns (honouring NoMap) and packed-adjacency
// snapshots are decoded; use OpenGraphFile to keep those compressed.
func ReadGraphFile(path string, opts ReadOptions) (*Digraph, error) {
	open := opts
	open.WithInEdges = false
	v, _, err := OpenGraphFile(path, open)
	if err != nil {
		return nil, err
	}
	g, err := HeapCSR(v)
	if err != nil {
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	if opts.WithInEdges && !g.HasInEdges() {
		g.buildInAdjacency()
	}
	return g, nil
}

package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"unsafe"
)

// In-place snapshot viewing: a .sgr image — an mmap'd file or a
// whole-file read into one aligned buffer — is parsed by aliasing its
// 8-aligned section payloads as typed columns, so load cost is independent
// of edge count. See the format comment in snapshot.go.

// hostLittleEndian reports the host byte order. In-place column views
// require little-endian (the on-disk order); other hosts transparently get
// decode copies from viewColumn.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// alignedBytes returns a zeroed byte slice of length n whose first byte is
// 8-aligned, so a file image read into it can be column-viewed in place
// exactly like an mmap'd region. (Go does not guarantee alignment for
// plain []byte allocations; backing the slice with []uint64 does.)
func alignedBytes(n int64) []byte {
	if n <= 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

// imageFormat is what readImage and openImage know of a binary format: its
// name for errors, and its fixed header's length and check, which reject a
// foreign or corrupt file before its body is read.
type imageFormat struct {
	name   string
	hdrLen int
	check  func(hdr []byte) error
}

var (
	snapshotImage = imageFormat{"snapshot", snapshotHeaderLen, func(h []byte) error { _, err := parseSnapshotHeader(h); return err }}
	shardImage    = imageFormat{"shard", shardHeaderLen, func(h []byte) error { _, _, _, err := parseShardHeader(h); return err }}
	manifestImage = imageFormat{"manifest", manifestHeaderLen, func(h []byte) error { _, err := parseManifestHeader(h); return err }}
)

// readImage reads a whole file image out of r into one 8-aligned buffer,
// the form the in-place viewers take. The header is read and checked
// first, so a reader that does not carry the format costs its header and
// no more. The body is then read at exact size when the source's length is
// known, and otherwise grows with the bytes that arrive: no header count
// ever sizes an allocation.
func readImage(r io.Reader, f imageFormat) ([]byte, error) {
	hdr := make([]byte, f.hdrLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("graph: %s: read header: %w", f.name, err)
	}
	if err := f.check(hdr); err != nil {
		return nil, err
	}
	if rest := sourceLimit(r); rest >= 0 {
		data := alignedBytes(int64(f.hdrLen) + rest)
		copy(data, hdr)
		if _, err := io.ReadFull(r, data[f.hdrLen:]); err != nil {
			return nil, fmt.Errorf("graph: %s: read body: %w", f.name, err)
		}
		return data, nil
	}
	data := alignedBytes(int64(f.hdrLen) + 64<<10)
	n := copy(data, hdr)
	for {
		if n == len(data) {
			grown := alignedBytes(2 * int64(len(data)))
			copy(grown, data)
			data = grown
		}
		m, err := r.Read(data[n:])
		n += m
		if err == io.EOF {
			return data[:n], nil
		}
		if err != nil {
			return nil, fmt.Errorf("graph: %s: read body: %w", f.name, err)
		}
	}
}

// openImage views an opened file in place: over a read-only mapping when
// mapIt and the platform allow, else over readImage's aligned heap copy.
// view learns which, and a mapping it rejects is released.
func openImage[T any](file *os.File, mapIt bool, f imageFormat, view func(data []byte, mapped bool) (T, error)) (T, bool, error) {
	if mapIt && mmapSupported {
		if fi, err := file.Stat(); err == nil && fi.Mode().IsRegular() {
			if m, err := mmapFile(file, fi.Size()); err == nil {
				v, err := view(m, true)
				if err != nil {
					munmapBytes(m)
				}
				return v, err == nil, err
			}
		}
		// Any mmap failure falls back to the aligned heap read.
	}
	data, err := readImage(file, f)
	if err != nil {
		var zero T
		return zero, false, err
	}
	v, err := view(data, false)
	return v, false, err
}

// viewColumn interprets a little-endian payload of fixed-width integers as
// []T, aliasing it in place when the host byte order and the payload's
// alignment allow, and decoding a copy otherwise.
func viewColumn[T int32 | int64 | VertexID](b []byte) []T {
	size := int(unsafe.Sizeof(T(0)))
	n := len(b) / size
	if n == 0 {
		return []T{}
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%uintptr(size) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	for i := range out {
		if size == 8 {
			out[i] = T(binary.LittleEndian.Uint64(b[i*8:]))
		} else {
			out[i] = T(binary.LittleEndian.Uint32(b[i*4:]))
		}
	}
	return out
}

// viewSnapshot parses a complete snapshot image in place. data must hold
// the whole file from byte 0 with &data[0] 8-byte aligned (mmap regions
// and alignedBytes buffers both qualify). On little-endian hosts the returned view's columns alias data, so the caller owns data's
// lifetime for as long as the view is reachable.
//
// verify=false runs only the O(vertices) structural checks — header CRC,
// section framing, zero padding, offset-column monotonicity — which is
// what keeps mapped loads allocation-free and clear of adjacency page
// faults; verify=true additionally checks every section CRC and the full
// row invariants (validateCSR, or a complete packed-row decode).
func viewSnapshot(data []byte, verify bool) (View, error) {
	if len(data) < snapshotHeaderLen {
		return nil, fmt.Errorf("graph: snapshot: truncated header (%d bytes)", len(data))
	}
	h, err := parseSnapshotHeader(data[:snapshotHeaderLen])
	if err != nil {
		return nil, err
	}
	w := &sectionWalker{data: data, pos: snapshotHeaderLen, align: snapshotAlign, prefix: "graph: snapshot", verify: verify}
	if h.packed() {
		p := &Packed{numVertices: h.vertices, numEdges: h.edges}
		if p.outOff, p.out, err = w.packedPair(h, "out"); err != nil {
			return nil, err
		}
		if h.inEdges() {
			if p.inOff, p.in, err = w.packedPair(h, "in"); err != nil {
				return nil, err
			}
		}
		return p, nil
	}
	g := &Digraph{numVertices: h.vertices}
	if g.outOff, g.outAdj, err = w.csrPair(h, "out"); err != nil {
		return nil, err
	}
	if h.inEdges() {
		if g.inOff, g.inAdj, err = w.csrPair(h, "in"); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// sectionWalker steps through the sections of an in-place file image.
// align is the section-start alignment the format promises (8 for
// snapshots, 1 — no padding — for shards); prefix labels errors.
type sectionWalker struct {
	data   []byte
	pos    int64
	align  int64
	prefix string
	verify bool
}

// section returns the next section's payload after checking the zero
// padding, the length prefix against want and, in verify mode, the CRC
// trailer.
func (s *sectionWalker) section(want int64, what string) ([]byte, error) {
	pad := -s.pos & (s.align - 1)
	if want < 0 || want > int64(len(s.data)) {
		return nil, fmt.Errorf("%s: truncated %s section", s.prefix, what)
	}
	end := s.pos + pad + 8 + want + 4
	if end > int64(len(s.data)) {
		return nil, fmt.Errorf("%s: truncated %s section", s.prefix, what)
	}
	for _, b := range s.data[s.pos : s.pos+pad] {
		if b != 0 {
			return nil, fmt.Errorf("%s: nonzero padding before %s section", s.prefix, what)
		}
	}
	s.pos += pad
	if got := binary.LittleEndian.Uint64(s.data[s.pos:]); got != uint64(want) {
		return nil, fmt.Errorf("%s: %s section length %d does not match header counts (want %d)", s.prefix, what, got, want)
	}
	payload := s.data[s.pos+8 : s.pos+8+want : s.pos+8+want]
	if s.verify {
		if got := binary.LittleEndian.Uint32(s.data[s.pos+8+want:]); got != crc32.Checksum(payload, snapshotCRC) {
			return nil, fmt.Errorf("%s: %s section checksum mismatch", s.prefix, what)
		}
	}
	s.pos = end
	return payload, nil
}

// sized returns the next section whose length only its own prefix
// declares (the manifest's strings), refusing a prefix past maxLen.
func (s *sectionWalker) sized(maxLen int64, what string) ([]byte, error) {
	at := s.pos + (-s.pos & (s.align - 1))
	if at+8 > int64(len(s.data)) {
		return nil, fmt.Errorf("%s: truncated %s section", s.prefix, what)
	}
	n := binary.LittleEndian.Uint64(s.data[at:])
	if n > uint64(maxLen) {
		return nil, fmt.Errorf("%s: %s section of %d bytes exceeds the %d-byte bound", s.prefix, what, n, maxLen)
	}
	return s.section(int64(n), what)
}

// csrPair views one plain adjacency direction: offset and adjacency
// columns, validated per the walker's verify mode.
func (s *sectionWalker) csrPair(h snapshotHeader, what string) ([]int64, []VertexID, error) {
	offB, err := s.section((int64(h.vertices)+1)*8, what+"-offset")
	if err != nil {
		return nil, nil, err
	}
	adjB, err := s.section(h.edges*4, what+"-adjacency")
	if err != nil {
		return nil, nil, err
	}
	off := viewColumn[int64](offB)
	adj := viewColumn[VertexID](adjB)
	if s.verify {
		err = validateCSR(h.vertices, off, adj, what)
	} else {
		err = validateOffsets(h.vertices, off, int64(len(adj)), what)
	}
	if err != nil {
		return nil, nil, err
	}
	return off, adj, nil
}

// packedPair views one packed adjacency direction: the byte-offset column
// and the row-block blob (whose length the offset column's endpoint
// defines and the section prefix must corroborate).
func (s *sectionWalker) packedPair(h snapshotHeader, what string) ([]int64, []byte, error) {
	offB, err := s.section((int64(h.vertices)+1)*8, what+"-offset")
	if err != nil {
		return nil, nil, err
	}
	off := viewColumn[int64](offB)
	blob, err := s.section(off[len(off)-1], what+"-adjacency")
	if err != nil {
		return nil, nil, err
	}
	if err := validateOffsets(h.vertices, off, int64(len(blob)), what); err != nil {
		return nil, nil, err
	}
	if s.verify {
		if err := validatePackedRows(h.vertices, off, blob, h.edges, what); err != nil {
			return nil, nil, err
		}
	}
	return off, blob, nil
}

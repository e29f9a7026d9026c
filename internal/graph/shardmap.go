package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
)

// Resident shards get the same zero-copy treatment as snapshots — without
// a format bump, because the shard-v1 layout is already alignment-friendly:
// the header is 56 bytes and every 4-byte column section is preceded only
// by 4-multiple payloads and 8+4-byte frames, so each u32/i32 payload
// starts 4-aligned in the file. MapShardFile aliases those columns straight
// out of an mmap view; only the two 1-byte role columns are copied (and
// normalised — a mapped bool must be exactly 0 or 1, which a hand-made
// file need not honour).

// MapShardFile opens a resident shard with its numeric columns aliasing a
// read-only mmap of the file, falling back to the streaming heap loader
// (ReadShard) when the platform lacks mmap or the mapping fails. The
// returned bool reports whether the mapped path was taken. Checksums and
// the full structural validation run on both paths; the mapped one just
// skips per-element decode and the big heap copies, which is what lets a
// worker pin a multi-gigabyte partition in milliseconds of allocator time.
//
// The mapping's owner is the ShardFile: a resident worker holds that one
// struct for its whole life and every session reads the aliased columns
// through it. The mapping is nonetheless pinned for the life of the process
// rather than unmapped when the struct is collected — column slices are plain
// Go slices, a caller may keep one past the struct, and an unmap under a live
// reader is a fault, not an error. Residents pin their shard forever anyway;
// callers that map many files pay one bounded mapping each.
func MapShardFile(path string) (*ShardFile, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, fmt.Errorf("graph: open %s: %w", path, err)
	}
	defer f.Close()
	if mmapSupported {
		if fi, serr := f.Stat(); serr == nil && fi.Mode().IsRegular() {
			if m, merr := mmapFile(f, fi.Size()); merr == nil {
				s, verr := viewShard(m)
				if verr != nil {
					munmapBytes(m)
					return nil, false, fmt.Errorf("graph: %s: %w", path, verr)
				}
				return s, true, nil
			}
		}
	}
	s, err := ReadShard(f)
	if err != nil {
		return nil, false, fmt.Errorf("graph: %s: %w", path, err)
	}
	return s, false, nil
}

// viewShard parses a complete shard image in place; data must hold the
// whole file from byte 0 (mmap'd or otherwise 4-aligned).
func viewShard(data []byte) (*ShardFile, error) {
	if len(data) < shardHeaderLen {
		return nil, fmt.Errorf("graph: shard: truncated header (%d bytes)", len(data))
	}
	hdr := data[:shardHeaderLen]
	if string(hdr[:8]) != shardMagic {
		return nil, fmt.Errorf("graph: shard: bad magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != shardVersion {
		return nil, fmt.Errorf("graph: shard: unsupported version %d (want %d)", v, shardVersion)
	}
	if want, got := crc32.Checksum(hdr[:52], snapshotCRC), binary.LittleEndian.Uint32(hdr[52:]); want != got {
		return nil, fmt.Errorf("graph: shard: header checksum mismatch")
	}
	v64 := binary.LittleEndian.Uint64(hdr[28:])
	l64 := binary.LittleEndian.Uint64(hdr[36:])
	e64 := binary.LittleEndian.Uint64(hdr[44:])
	if v64 > 1<<32 || l64 > v64 {
		return nil, fmt.Errorf("graph: shard: implausible vertex counts (%d locals of %d)", l64, v64)
	}
	if e64 > math.MaxInt64/8 {
		return nil, fmt.Errorf("graph: shard: implausible edge count %d", e64)
	}
	s := &ShardFile{
		Fingerprint: binary.LittleEndian.Uint64(hdr[20:]),
		Shard:       int(binary.LittleEndian.Uint32(hdr[12:])),
		Shards:      int(binary.LittleEndian.Uint32(hdr[16:])),
		NumVertices: int(v64),
	}
	w := &sectionWalker{data: data, pos: shardHeaderLen, align: 1, prefix: "graph: shard", verify: true}
	localsB, err := w.section(int64(l64)*4, "locals")
	if err != nil {
		return nil, err
	}
	s.Locals = viewVertexIDs(localsB)
	cols := []*[]int32{&s.Deg, &s.EdgeSrc, &s.EdgeDst}
	for i, elems := range []int64{int64(l64), int64(e64), int64(e64)} {
		b, err := w.section(elems*4, [...]string{"degree", "edge-source", "edge-target"}[i])
		if err != nil {
			return nil, err
		}
		*cols[i] = viewInt32s(b)
	}
	for _, col := range []*[]bool{&s.IsMaster, &s.HasRemote} {
		b, err := w.section(int64(l64), "role")
		if err != nil {
			return nil, err
		}
		*col = boolsFromBytes(b)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// boolsFromBytes copies and normalises a 1-byte-per-entry column. Bools
// are never aliased from a mapping: a Go bool must be exactly 0 or 1 in
// memory, which an on-disk byte need not be.
func boolsFromBytes(b []byte) []bool {
	out := make([]bool, len(b))
	for i, v := range b {
		out[i] = v != 0
	}
	return out
}

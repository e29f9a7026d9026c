package graph

import (
	"fmt"
	"os"
)

// Resident shards get the same zero-copy treatment as snapshots, because
// the shard layout is alignment-friendly: the header is 56 bytes and every
// 4-byte column section is preceded only by 4-multiple payloads and
// 8+4-byte frames, so each u32/i32 payload starts 4-aligned in the file.
// MapShardFile aliases every column straight out of an mmap view, the
// 1-byte role column included (Validate checks its bytes in place).

// MapShardFile opens a resident shard with its numeric columns aliasing a
// read-only mmap of the file, falling back to ReadShard's aligned heap image
// when the platform lacks mmap or the mapping fails. The
// returned bool reports whether the mapped path was taken. Checksums and
// the full structural validation run on both paths, through the one
// viewer; the mapped one just skips reading the file onto the heap, which is
// what lets a worker pin a multi-gigabyte partition in milliseconds of
// allocator time.
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
	s, mapped, err := openImage(f, true, shardImage, func(data []byte, _ bool) (*ShardFile, error) { return viewShard(data) })
	if err != nil {
		return nil, false, fmt.Errorf("graph: %s: %w", path, err)
	}
	return s, mapped, nil
}

// viewShard parses a complete shard image in place; data must hold the
// whole file from byte 0 (mmap'd or otherwise 4-aligned).
func viewShard(data []byte) (*ShardFile, error) {
	s, l64, e64, err := parseShardHeader(data)
	if err != nil {
		return nil, err
	}
	w := &sectionWalker{data: data, pos: shardHeaderLen, align: 1, prefix: "graph: shard", verify: true}
	localsB, err := w.section(l64*4, "locals")
	if err != nil {
		return nil, err
	}
	s.Locals = viewColumn[VertexID](localsB)
	cols := []*[]int32{&s.Deg, &s.EdgeSrc, &s.EdgeDst}
	for i, elems := range []int64{l64, e64, e64} {
		b, err := w.section(elems*4, [...]string{"degree", "edge-source", "edge-target"}[i])
		if err != nil {
			return nil, err
		}
		*cols[i] = viewColumn[int32](b)
	}
	if s.Roles, err = w.section(l64, "role"); err != nil {
		return nil, err
	}
	if extra := int64(len(data)) - w.pos; extra != 0 {
		return nil, fmt.Errorf("graph: shard: %d trailing bytes after the last section", extra)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := s.IndexRuns(); err != nil {
		return nil, err
	}
	return s, nil
}

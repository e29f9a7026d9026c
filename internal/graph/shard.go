package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"
)

// Resident shard snapshots (.sgr.N) and fleet manifests (.sgr.manifest).
//
// `snaple pack -shards N` splits a graph along a vertex cut once, at pack
// time, and writes each partition as its own checksummed file. A resident
// snaple-worker loads exactly one of these at startup and keeps it pinned
// across sessions, so a coordinator attaches to a standing fleet with a
// fingerprint handshake instead of shipping the partition on every run —
// the shape DSSLP and GiGL use for production serving, where graph storage
// is a durable tier and queries only route to it.
//
// Both formats reuse the .sgr section discipline (u64 length prefix,
// payload, CRC-32C u32 trailer) so corruption is caught at load, never
// mid-superstep, and both decode the way a snapshot does: one in-place
// viewer (viewShard, viewManifest) over a whole-file image, mapped or read.
//
// Shard layout (all integers little-endian):
//
//	magic       [8]byte "SNAPLSHD"
//	version     uint32 (2; version-1 files are rejected with errShardV1)
//	shard       uint32 — this file's partition index
//	shards      uint32 — fleet width the cut was computed for
//	fingerprint uint64 — fleet fingerprint (graph + cut parameters)
//	vertices    uint64 — the GLOBAL vertex count
//	locals      uint64 — entries in the local vertex table
//	edges       uint64 — edges assigned to this partition
//	headerCRC   uint32 — CRC-32C of the 52 bytes above
//
// followed by sections: Locals (uint32 each), Deg (int32), EdgeSrc (int32),
// EdgeDst (int32), Roles (1 byte each: 0, RoleMaster or RoleMaster|RoleRemote).
// Version 1 stored the roles as two 0/1 byte sections, master and remote.
//
// Manifest layout:
//
//	magic       [8]byte "SNAPLMAN"
//	version     uint32 (currently 1)
//	shards      uint32
//	fingerprint uint64
//	vertices    uint64
//	edges       uint64
//	seed        uint64
//	headerCRC   uint32 — CRC-32C of the 48 bytes above
//
// followed by sections: the strategy name (bytes), the shard file names
// ('\n'-joined, relative to the manifest), then per-shard local, master and
// edge counts (int64 each).
const (
	shardMagic        = "SNAPLSHD"
	shardVersion      = 2
	shardHeaderLen    = 56
	manifestMagic     = "SNAPLMAN"
	manifestVersion   = 1
	manifestHeaderLen = 52
)

// Role bits of a vertex replica, one byte per replica: a shard's baked
// full-run role (ShardFile.Roles) and a scoped attach's per-query one carry
// the same bits.
const (
	// RoleMaster marks the vertex's master copy.
	RoleMaster uint8 = 1 << 0
	// RoleRemote marks a replica whose vertex is replicated on other
	// partitions: its master broadcasts refreshes after each apply.
	RoleRemote uint8 = 1 << 1
)

// errShardV1 rejects the retired two-column role layout.
var errShardV1 = errors.New("graph: shard: format v1 is no longer readable; re-pack the shard set with `snaple pack -shards`")

// errShardRole rejects a baked role byte other than 0, RoleMaster and
// RoleMaster|RoleRemote: a shard's mirrors carry no role bit.
var errShardRole = errors.New("graph: shard: bad role byte")

// KnownMagic reports whether b begins with one of the package's on-disk
// magics (graph snapshot, resident shard or fleet manifest). `snaple pack`
// uses it as its overwrite guard: clobbering a file this package wrote is a
// re-pack, clobbering anything else is a typo'd -out.
func KnownMagic(b []byte) bool {
	if len(b) < 8 {
		return false
	}
	switch string(b[:8]) {
	case snapshotMagic, shardMagic, manifestMagic:
		return true
	}
	return false
}

// ShardFile is one worker's share of a vertex cut, and the only description
// of it: what partition.NewCut builds, what `snaple pack -shards` writes, what
// a KindShip frame carries, what a worker holds across jobs, what
// core.DistPartition runs over and what a sim partition is. Beside the
// columns — local vertex table, aligned degree/role columns, edges as local
// indices — it carries the fleet identity (fingerprint, shard index, fleet
// width) the attach handshake verifies in place of a transfer.
//
// A shard is immutable once validated: a worker shares one across every
// session of every connection, read-only.
type ShardFile struct {
	// Fingerprint identifies the (graph, cut) this shard was packed from; a
	// coordinator attaching with a different fingerprint is rejected.
	Fingerprint uint64
	// Shard is this partition's index in [0, Shards).
	Shard int
	// Shards is the fleet width the vertex cut was computed for.
	Shards int
	// NumVertices is the global vertex count.
	NumVertices int
	// Locals holds the sorted global IDs of the vertices replicated here; a
	// vertex's position in it is its local index.
	Locals []VertexID
	// Deg holds the full out-degree of each local vertex, aligned with Locals.
	Deg []int32
	// EdgeSrc/EdgeDst are the partition's edges as indices into Locals, in
	// global (src, dst) order: EdgeSrc is non-decreasing, so each source's
	// edges form one contiguous run and the runs ascend.
	EdgeSrc, EdgeDst []int32
	// Roles are the full-run roles baked at the cut, aligned with Locals:
	// RoleMaster on each vertex's master copy, with RoleRemote when the
	// vertex has mirrors, and 0 on a mirror (scoped attaches override them
	// per query).
	Roles []uint8
	// RunStart is the run-offset column, derived from EdgeSrc and never
	// encoded: local i's out-edges are EdgeSrc/EdgeDst[RunStart[i]:RunStart[i+1]],
	// so a job opens each slot's edge run by two reads. IndexRuns computes it
	// (len(Locals)+1 entries, 4 B per local), once where a process opens jobs
	// on the shard: the decoder behind ReadShard and MapShardFile, and the
	// in-process drivers over a cut's shards.
	RunStart []uint32
}

// Validate is the one shard validator: every invariant a worker relies on
// mid-superstep, checked once — by the shard decoder behind ReadShard and
// MapShardFile, whether a worker pins a packed shard or a KindShip frame
// carries one. It only reads the shard. Everything downstream
// (core.NewDistPartition, the gather, the attach) trusts a validated shard
// and re-checks nothing.
func (s *ShardFile) Validate() error {
	switch {
	case s.Shards <= 0 || s.Shard < 0 || s.Shard >= s.Shards:
		return fmt.Errorf("graph: shard: index %d outside fleet of %d", s.Shard, s.Shards)
	case len(s.Deg) != len(s.Locals):
		return fmt.Errorf("graph: shard: %d degrees for %d locals", len(s.Deg), len(s.Locals))
	case len(s.Roles) != len(s.Locals):
		return fmt.Errorf("graph: shard: %d roles for %d locals", len(s.Roles), len(s.Locals))
	case len(s.EdgeSrc) != len(s.EdgeDst):
		return fmt.Errorf("graph: shard: %d edge sources, %d edge targets", len(s.EdgeSrc), len(s.EdgeDst))
	}
	for i, v := range s.Locals {
		if int(v) >= s.NumVertices || (i > 0 && v <= s.Locals[i-1]) {
			return fmt.Errorf("graph: shard: local table not strictly increasing in [0,%d) at row %d", s.NumVertices, i)
		}
	}
	for i, r := range s.Roles {
		if r != 0 && r != RoleMaster && r != RoleMaster|RoleRemote {
			return fmt.Errorf("%w %#x at row %d", errShardRole, r, i)
		}
	}
	n, prev := len(s.Locals), int32(0)
	for i, si := range s.EdgeSrc {
		di := s.EdgeDst[i]
		if si < 0 || int(si) >= n || di < 0 || int(di) >= n {
			return fmt.Errorf("graph: shard: edge %d outside the local table", i)
		}
		// Locals are distinct, so equal indices are a self-loop, which no
		// View holds.
		if si == di {
			return fmt.Errorf("graph: shard: edge %d is a self-loop", i)
		}
		// Sorted source runs are what the run-offset column (IndexRuns)
		// indexes; every cut produces them (View edge order is (src, dst)
		// and Locals ascend).
		if si < prev {
			return fmt.Errorf("graph: shard: edge sources not non-decreasing at edge %d", i)
		}
		prev = si
	}
	return nil
}

// IndexRuns derives RunStart from EdgeSrc, which must index Locals and never
// decrease (Validate checks both; a cut makes them so). It refuses a shard
// whose edges its 32-bit offsets cannot index. It writes the shard, so it
// runs before any job opens on it, never beside one.
func (s *ShardFile) IndexRuns() error {
	if uint64(len(s.EdgeSrc)) > math.MaxUint32 {
		return fmt.Errorf("graph: shard: %d edges, more than a shard's 32-bit run offsets index", len(s.EdgeSrc))
	}
	// runEnd[i+1] ends local i's run once its last edge is seen; a local with
	// no out-edge takes the end of the run before it.
	runEnd := make([]uint32, len(s.Locals)+1)
	for i, si := range s.EdgeSrc {
		runEnd[si+1] = uint32(i + 1)
	}
	for i := 1; i < len(runEnd); i++ {
		runEnd[i] = max(runEnd[i], runEnd[i-1])
	}
	s.RunStart = runEnd
	return nil
}

// WriteShard writes one resident partition as a checksummed shard snapshot.
func WriteShard(w io.Writer, s *ShardFile) error {
	if err := s.Validate(); err != nil {
		return err
	}
	return EncodeShard(w, s)
}

// EncodeShard is WriteShard without the validation, for a stream whose
// reader runs it: the wire's KindShip payload is these bytes, and the worker
// decodes them through ReadShard. Tests also encode broken shards through it
// to prove the decoder refuses them.
func EncodeShard(w io.Writer, s *ShardFile) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [shardHeaderLen]byte
	copy(hdr[:8], shardMagic)
	binary.LittleEndian.PutUint32(hdr[8:], shardVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(s.Shard))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(s.Shards))
	binary.LittleEndian.PutUint64(hdr[20:], s.Fingerprint)
	binary.LittleEndian.PutUint64(hdr[28:], uint64(s.NumVertices))
	binary.LittleEndian.PutUint64(hdr[36:], uint64(len(s.Locals)))
	binary.LittleEndian.PutUint64(hdr[44:], uint64(len(s.EdgeSrc)))
	binary.LittleEndian.PutUint32(hdr[52:], crc32.Checksum(hdr[:52], snapshotCRC))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("graph: shard: write header: %w", err)
	}
	if err := writeColumn(bw, s.Locals); err != nil {
		return err
	}
	for _, col := range [][]int32{s.Deg, s.EdgeSrc, s.EdgeDst} {
		if err := writeColumn(bw, col); err != nil {
			return err
		}
	}
	if err := writeColumn(bw, s.Roles); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: shard: flush: %w", err)
	}
	return nil
}

// ReadShard loads a partition written by WriteShard, verifying its checksums
// and structural invariants, refusing bytes after the last section, and
// deriving its run-offset column (IndexRuns). It is MapShardFile's decoder
// over a heap image of the reader's bytes, and the one a worker installs a
// shipped shard through.
func ReadShard(r io.Reader) (*ShardFile, error) {
	data, err := readImage(r, shardImage)
	if err != nil {
		return nil, err
	}
	return viewShard(data)
}

// parseShardHeader validates a shard's fixed header — magic, version,
// checksum, plausible counts — and returns the shard it describes, columns
// unset, with its local and edge counts.
func parseShardHeader(hdr []byte) (*ShardFile, int64, int64, error) {
	if len(hdr) < shardHeaderLen {
		return nil, 0, 0, fmt.Errorf("graph: shard: truncated header (%d bytes)", len(hdr))
	}
	if string(hdr[:8]) != shardMagic {
		return nil, 0, 0, fmt.Errorf("graph: shard: bad magic %q", hdr[:8])
	}
	switch v := binary.LittleEndian.Uint32(hdr[8:]); v {
	case shardVersion:
	case 1:
		return nil, 0, 0, errShardV1
	default:
		return nil, 0, 0, fmt.Errorf("graph: shard: unsupported version %d (want %d)", v, shardVersion)
	}
	if want, got := crc32.Checksum(hdr[:52], snapshotCRC), binary.LittleEndian.Uint32(hdr[52:]); want != got {
		return nil, 0, 0, fmt.Errorf("graph: shard: header checksum mismatch")
	}
	v64 := binary.LittleEndian.Uint64(hdr[28:])
	l64 := binary.LittleEndian.Uint64(hdr[36:])
	e64 := binary.LittleEndian.Uint64(hdr[44:])
	if v64 > 1<<32 || l64 > v64 {
		return nil, 0, 0, fmt.Errorf("graph: shard: implausible vertex counts (%d locals of %d)", l64, v64)
	}
	if e64 > math.MaxInt64/8 {
		return nil, 0, 0, fmt.Errorf("graph: shard: implausible edge count %d", e64)
	}
	s := &ShardFile{
		Fingerprint: binary.LittleEndian.Uint64(hdr[20:]),
		Shard:       int(binary.LittleEndian.Uint32(hdr[12:])),
		Shards:      int(binary.LittleEndian.Uint32(hdr[16:])),
		NumVertices: int(v64),
	}
	return s, int64(l64), int64(e64), nil
}

// Manifest describes a packed shard set: the fleet identity every worker and
// coordinator must agree on, plus per-shard bookkeeping for operators.
type Manifest struct {
	// Fingerprint identifies the (graph, cut); it must match every shard's.
	Fingerprint uint64
	// Shards is the fleet width.
	Shards int
	// NumVertices/NumEdges describe the packed graph.
	NumVertices int
	NumEdges    int64
	// Seed and Strategy are the vertex-cut parameters the shards were packed
	// with (the coordinator re-derives routing from them).
	Seed     uint64
	Strategy string
	// Files names the shard files, relative to the manifest's directory.
	Files []string
	// Locals/Masters/Edges are per-shard counts, aligned with Files.
	Locals, Masters, Edges []int64
}

// Validate checks the manifest's internal consistency.
func (m *Manifest) Validate() error {
	switch {
	case m.Shards <= 0:
		return fmt.Errorf("graph: manifest: non-positive shard count %d", m.Shards)
	case len(m.Files) != m.Shards || len(m.Locals) != m.Shards ||
		len(m.Masters) != m.Shards || len(m.Edges) != m.Shards:
		return fmt.Errorf("graph: manifest: per-shard tables do not all have %d rows", m.Shards)
	case m.Strategy == "":
		return fmt.Errorf("graph: manifest: empty strategy name")
	}
	for i, f := range m.Files {
		if f == "" || strings.ContainsRune(f, '\n') {
			return fmt.Errorf("graph: manifest: bad shard file name %q (row %d)", f, i)
		}
	}
	return nil
}

// WriteManifest writes a fleet manifest.
func WriteManifest(w io.Writer, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	var hdr [manifestHeaderLen]byte
	copy(hdr[:8], manifestMagic)
	binary.LittleEndian.PutUint32(hdr[8:], manifestVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(m.Shards))
	binary.LittleEndian.PutUint64(hdr[16:], m.Fingerprint)
	binary.LittleEndian.PutUint64(hdr[24:], uint64(m.NumVertices))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(m.NumEdges))
	binary.LittleEndian.PutUint64(hdr[40:], m.Seed)
	binary.LittleEndian.PutUint32(hdr[48:], crc32.Checksum(hdr[:48], snapshotCRC))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("graph: manifest: write header: %w", err)
	}
	for _, str := range []string{m.Strategy, strings.Join(m.Files, "\n")} {
		if err := writeColumn(bw, []byte(str)); err != nil {
			return err
		}
	}
	for _, col := range [][]int64{m.Locals, m.Masters, m.Edges} {
		if err := writeColumn(bw, col); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: manifest: flush: %w", err)
	}
	return nil
}

// ReadManifest loads a fleet manifest written by WriteManifest.
func ReadManifest(r io.Reader) (*Manifest, error) {
	data, err := readImage(r, manifestImage)
	if err != nil {
		return nil, err
	}
	return viewManifest(data)
}

// parseManifestHeader validates a manifest's fixed header and returns the
// manifest it describes, sections unset.
func parseManifestHeader(hdr []byte) (*Manifest, error) {
	if len(hdr) < manifestHeaderLen {
		return nil, fmt.Errorf("graph: manifest: truncated header (%d bytes)", len(hdr))
	}
	if string(hdr[:8]) != manifestMagic {
		return nil, fmt.Errorf("graph: manifest: bad magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != manifestVersion {
		return nil, fmt.Errorf("graph: manifest: unsupported version %d (want %d)", v, manifestVersion)
	}
	if want, got := crc32.Checksum(hdr[:48], snapshotCRC), binary.LittleEndian.Uint32(hdr[48:]); want != got {
		return nil, fmt.Errorf("graph: manifest: header checksum mismatch")
	}
	m := &Manifest{
		Fingerprint: binary.LittleEndian.Uint64(hdr[16:]),
		Shards:      int(binary.LittleEndian.Uint32(hdr[12:])),
		NumVertices: int(binary.LittleEndian.Uint64(hdr[24:])),
		NumEdges:    int64(binary.LittleEndian.Uint64(hdr[32:])),
		Seed:        binary.LittleEndian.Uint64(hdr[40:]),
	}
	if m.Shards <= 0 || m.Shards > 1<<20 {
		return nil, fmt.Errorf("graph: manifest: implausible shard count %d", m.Shards)
	}
	return m, nil
}

// viewManifest parses a complete manifest image.
func viewManifest(data []byte) (*Manifest, error) {
	m, err := parseManifestHeader(data)
	if err != nil {
		return nil, err
	}
	w := &sectionWalker{data: data, pos: manifestHeaderLen, align: 1, prefix: "graph: manifest", verify: true}
	strat, err := w.sized(1<<10, "strategy")
	if err != nil {
		return nil, err
	}
	files, err := w.sized(64<<20, "file-list")
	if err != nil {
		return nil, err
	}
	m.Strategy = string(strat)
	m.Files = strings.Split(string(files), "\n")
	for _, col := range []*[]int64{&m.Locals, &m.Masters, &m.Edges} {
		b, err := w.section(int64(m.Shards)*8, "count")
		if err != nil {
			return nil, err
		}
		*col = viewColumn[int64](b)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

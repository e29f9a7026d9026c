package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func testShard() *ShardFile {
	return &ShardFile{
		Fingerprint: 0xDEADBEEFCAFE,
		Shard:       1,
		Shards:      3,
		NumVertices: 10,
		Locals:      []VertexID{1, 3, 4, 7, 9},
		Deg:         []int32{2, 0, 5, 1, 3},
		EdgeSrc:     []int32{0, 0, 2, 4},
		EdgeDst:     []int32{1, 3, 0, 2},
		Roles:       []uint8{RoleMaster, 0, RoleMaster | RoleRemote, RoleMaster, 0},
	}
}

func testManifest() *Manifest {
	return &Manifest{
		Fingerprint: 0xDEADBEEFCAFE,
		Shards:      3,
		NumVertices: 10,
		NumEdges:    14,
		Seed:        42,
		Strategy:    "hash-edge",
		Files:       []string{"g.sgr.0", "g.sgr.1", "g.sgr.2"},
		Locals:      []int64{5, 5, 4},
		Masters:     []int64{4, 3, 3},
		Edges:       []int64{5, 4, 5},
	}
}

func TestShardRoundTrip(t *testing.T) {
	want := testShard()
	var buf bytes.Buffer
	if err := WriteShard(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadShard(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The decoder derives the run-offset column the bytes do not carry.
	if err := want.IndexRuns(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	want := testManifest()
	var buf bytes.Buffer
	if err := WriteManifest(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestShardCorruptionDetected flips every single byte of an encoded shard in
// turn; each corruption must surface as a load error, never as a silently
// different partition.
func TestShardCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteShard(&buf, testShard()); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for i := range orig {
		mut := bytes.Clone(orig)
		mut[i] ^= 0x40
		got, err := ReadShard(bytes.NewReader(mut))
		if err == nil && reflect.DeepEqual(got, testShard()) {
			// A flip inside unused padding would be acceptable; there is none,
			// so equality means the flip went undetected.
			t.Fatalf("flipping byte %d of %d went undetected", i, len(orig))
		}
		if err == nil {
			t.Fatalf("flipping byte %d loaded cleanly as a different shard", i)
		}
	}
}

func TestManifestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteManifest(&buf, testManifest()); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for i := range orig {
		mut := bytes.Clone(orig)
		mut[i] ^= 0x40
		if _, err := ReadManifest(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flipping byte %d of %d went undetected", i, len(orig))
		}
	}
}

func TestShardTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteShard(&buf, testShard()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for _, n := range []int{0, 8, shardHeaderLen - 1, shardHeaderLen, len(b) / 2, len(b) - 1} {
		if _, err := ReadShard(bytes.NewReader(b[:n])); err == nil {
			t.Errorf("shard truncated to %d of %d bytes loaded cleanly", n, len(b))
		}
	}
	// Bytes past the last section are refused too: a shard decodes only
	// from exactly the bytes it re-encodes to.
	if _, err := ReadShard(bytes.NewReader(append(b, 0))); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("shard with a trailing byte: %v, want a trailing-bytes refusal", err)
	}
}

func TestShardValidate(t *testing.T) {
	breakages := map[string]func(*ShardFile){
		"shard-out-of-range":  func(s *ShardFile) { s.Shard = 3 },
		"deg-misaligned":      func(s *ShardFile) { s.Deg = s.Deg[:3] },
		"locals-unsorted":     func(s *ShardFile) { s.Locals[2] = s.Locals[1] },
		"locals-out-of-range": func(s *ShardFile) { s.Locals[4] = 10 },
		"edge-out-of-range":   func(s *ShardFile) { s.EdgeDst[0] = 5 },
		"edge-cols-ragged":    func(s *ShardFile) { s.EdgeDst = s.EdgeDst[:3] },
		"roles-misaligned":    func(s *ShardFile) { s.Roles = s.Roles[:4] },
		"role-undefined-bit":  func(s *ShardFile) { s.Roles[4] = 1 << 7 },
		"role-remote-mirror":  func(s *ShardFile) { s.Roles[3] = RoleRemote },
	}
	for name, breakIt := range breakages {
		s := testShard()
		breakIt(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
		if err := WriteShard(&bytes.Buffer{}, s); err == nil {
			t.Errorf("%s: written", name)
		}
	}
}

// TestShardRunStartMatchesScan holds the run-offset column IndexRuns derives
// to a linear scan of EdgeSrc: for every local, its run starts after the
// edges of lower sources and ends after its own. The random shards have
// locals with no out-edge (the first and the last among them in some) and
// edgeless shards. Validate and WriteShard only read the shard, and the
// decoder derives the same column for a shard re-read from its bytes.
func TestShardRunStartMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for c := range 300 {
		n := 1 + rng.Intn(30)
		s := &ShardFile{Shard: 0, Shards: 1, NumVertices: 2 * n,
			Deg: make([]int32, n), Roles: make([]uint8, n)}
		for v := range 2 * n {
			if len(s.Locals) < n && rng.Intn(2*n-v) < n-len(s.Locals) {
				s.Locals = append(s.Locals, VertexID(v))
			}
		}
		// Each local has out-edges with probability 1/2, except that case
		// c%3 == 1 leaves the first and last locals without and c%7 == 0
		// leaves the whole shard edgeless.
		for si := range n {
			if c%7 == 0 || rng.Intn(2) == 0 || c%3 == 1 && (si == 0 || si == n-1) {
				continue
			}
			for di := range n {
				if di != si && rng.Intn(3) == 0 {
					s.EdgeSrc, s.EdgeDst = append(s.EdgeSrc, int32(si)), append(s.EdgeDst, int32(di))
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteShard(&buf, s); err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		if s.RunStart != nil {
			t.Fatalf("case %d: WriteShard wrote the run-offset column", c)
		}
		if err := s.IndexRuns(); err != nil {
			t.Fatal(err)
		}
		if len(s.RunStart) != n+1 {
			t.Fatalf("case %d: %d run offsets for %d locals", c, len(s.RunStart), n)
		}
		for li := range n {
			lo, hi := 0, 0
			for _, si := range s.EdgeSrc {
				if si < int32(li) {
					lo++
				}
				if si <= int32(li) {
					hi++
				}
			}
			if int(s.RunStart[li]) != lo || int(s.RunStart[li+1]) != hi {
				t.Fatalf("case %d: local %d's run is [%d,%d), want [%d,%d)", c, li, s.RunStart[li], s.RunStart[li+1], lo, hi)
			}
		}
		got, err := ReadShard(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.RunStart, s.RunStart) {
			t.Fatalf("case %d: re-read column %v, want %v", c, got.RunStart, s.RunStart)
		}
	}
}

func TestManifestValidate(t *testing.T) {
	breakages := map[string]func(*Manifest){
		"no-shards":        func(m *Manifest) { m.Shards = 0 },
		"ragged-tables":    func(m *Manifest) { m.Locals = m.Locals[:2] },
		"empty-strategy":   func(m *Manifest) { m.Strategy = "" },
		"empty-file":       func(m *Manifest) { m.Files[1] = "" },
		"newline-in-file":  func(m *Manifest) { m.Files[0] = "a\nb" },
		"files-misaligned": func(m *Manifest) { m.Files = m.Files[:2] },
	}
	for name, breakIt := range breakages {
		m := testManifest()
		breakIt(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
		if err := WriteManifest(&bytes.Buffer{}, m); err == nil {
			t.Errorf("%s: written", name)
		}
	}
}

func TestKnownMagic(t *testing.T) {
	var shard, man bytes.Buffer
	if err := WriteShard(&shard, testShard()); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(&man, testManifest()); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"shard":    shard.Bytes(),
		"manifest": man.Bytes(),
		"snapshot": []byte(snapshotMagic + "trailing"),
	} {
		if !KnownMagic(b) {
			t.Errorf("%s magic not recognised", name)
		}
	}
	for name, b := range map[string][]byte{
		"empty":   nil,
		"short":   []byte("SNAPL"),
		"foreign": []byte(strings.Repeat("x", 64)),
	} {
		if KnownMagic(b) {
			t.Errorf("%s recognised as ours", name)
		}
	}
}

// shardRefusal is a shard image the decoder must refuse with the typed error
// want.
type shardRefusal struct {
	data []byte
	want error
}

// shardRefusals are role bytes the validator owns, encoded under correct
// checksums, and a version-1 header under a correct header checksum.
func shardRefusals(tb testing.TB) map[string]shardRefusal {
	tb.Helper()
	encode := func(s *ShardFile) []byte {
		var buf bytes.Buffer
		if err := EncodeShard(&buf, s); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	undefined, mirror := testShard(), testShard()
	undefined.Roles[0] = RoleMaster | 1<<2
	mirror.Roles[1] = RoleRemote
	v1 := encode(testShard())
	binary.LittleEndian.PutUint32(v1[8:], 1)
	binary.LittleEndian.PutUint32(v1[52:], crc32.Checksum(v1[:52], snapshotCRC))
	return map[string]shardRefusal{
		"role-undefined-bit":    {encode(undefined), errShardRole},
		"role-remote-no-master": {encode(mirror), errShardRole},
		"v1-header":             {v1, errShardV1},
	}
}

// TestShardRefusalsTyped: a role byte other than 0, RoleMaster and
// RoleMaster|RoleRemote, and a version-1 file, are refused by ReadShard and
// MapShardFile alike with their typed errors — accepting a stray role bit
// would load a shard whose mirrors broadcast, and a v1 file stores its roles
// in two sections this build does not read.
func TestShardRefusalsTyped(t *testing.T) {
	dir := t.TempDir()
	for name, c := range shardRefusals(t) {
		if _, err := ReadShard(bytes.NewReader(c.data)); !errors.Is(err, c.want) {
			t.Errorf("%s: ReadShard: %v, want %v", name, err, c.want)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := MapShardFile(path); !errors.Is(err, c.want) {
			t.Errorf("%s: MapShardFile: %v, want %v", name, err, c.want)
		}
	}
}

// TestMapShardAliasesColumns pins the mapped load's allocation to the
// derived run-offset column alone (4 B per local): every stored column, the
// role bytes included, aliases the mapping. Between shards of 50k and 500k
// locals the allocation may grow at most 4.5 B per added local; copying two
// bool role columns to the heap made it 6.
func TestMapShardAliasesColumns(t *testing.T) {
	dir := t.TempDir()
	mapCost := func(n int) uint64 {
		s := &ShardFile{Shard: 0, Shards: 2, NumVertices: 2 * n,
			Locals: make([]VertexID, n), Deg: make([]int32, n), Roles: make([]uint8, n)}
		for i := range n {
			s.Locals[i] = VertexID(2 * i)
			s.Roles[i] = [...]uint8{0, RoleMaster, RoleMaster | RoleRemote}[i%3]
			if i+1 < n {
				s.EdgeSrc, s.EdgeDst = append(s.EdgeSrc, int32(i)), append(s.EdgeDst, int32(i+1))
			}
		}
		path := filepath.Join(dir, fmt.Sprintf("g.sgr.%d", n))
		var buf bytes.Buffer
		if err := WriteShard(&buf, s); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		best := ^uint64(0)
		for range 3 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			got, mapped, err := MapShardFile(path)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if !mapped {
				t.Skip("no mmap on this platform: the heap path copies every column")
			}
			if !bytes.Equal(got.Roles, s.Roles) {
				t.Fatal("mapped roles differ from the written ones")
			}
			best = min(best, m1.TotalAlloc-m0.TotalAlloc)
		}
		return best
	}
	const small, large = 50_000, 500_000
	lo, hi := mapCost(small), mapCost(large)
	slope := (float64(hi) - float64(lo)) / (large - small)
	t.Logf("MapShardFile allocates %d B at %d locals, %d B at %d: %.2f B per added local", lo, small, hi, large, slope)
	if slope > 4.5 {
		t.Errorf("MapShardFile allocates %.2f B per added local, want <= 4.5: a stored column copied to the heap?", slope)
	}
}

// endless is a reader of unknown length: head, then zeros forever. It counts
// what it hands out.
type endless struct {
	head []byte
	read int
}

func (r *endless) Read(p []byte) (int, error) {
	n := copy(p, r.head)
	r.head = r.head[n:]
	clear(p[n:])
	r.read += len(p)
	return len(p), nil
}

// TestLoadersRejectHeaderFirst: a loader handed a never-ending reader whose
// header is foreign or corrupt returns its error having read no more than the
// header, so a -manifest or -shard path pointed at some huge file costs a
// header read, not a whole-file one.
func TestLoadersRejectHeaderFirst(t *testing.T) {
	var snap, shard, man bytes.Buffer
	if err := WriteSnapshot(&snap, MustFromEdges(3, []Edge{{0, 1}, {1, 2}})); err != nil {
		t.Fatal(err)
	}
	if err := WriteShard(&shard, testShard()); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(&man, testManifest()); err != nil {
		t.Fatal(err)
	}
	loaders := []struct {
		name   string
		valid  []byte
		hdrLen int
		load   func(io.Reader) error
	}{
		{"snapshot", snap.Bytes(), snapshotHeaderLen, func(r io.Reader) error { _, err := ReadSnapshot(r); return err }},
		{"shard", shard.Bytes(), shardHeaderLen, func(r io.Reader) error { _, err := ReadShard(r); return err }},
		{"manifest", man.Bytes(), manifestHeaderLen, func(r io.Reader) error { _, err := ReadManifest(r); return err }},
	}
	for _, l := range loaders {
		for _, breakage := range []struct {
			name string
			at   int
			want string
		}{
			{"magic", 0, "bad magic"},
			{"version", 8, "unsupported version"},
			{"header-crc", l.hdrLen - 1, "header checksum mismatch"},
		} {
			hdr := bytes.Clone(l.valid[:l.hdrLen])
			hdr[breakage.at] ^= 0x40
			r := &endless{head: hdr}
			err := l.load(r)
			if err == nil || !strings.Contains(err.Error(), breakage.want) {
				t.Errorf("%s with a bad %s: %v, want %q", l.name, breakage.name, err, breakage.want)
			}
			if r.read > l.hdrLen {
				t.Errorf("%s with a bad %s: read %d bytes before refusing a %d-byte header", l.name, breakage.name, r.read, l.hdrLen)
			}
		}
	}
}

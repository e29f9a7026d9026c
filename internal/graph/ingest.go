package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
)

// Streaming parallel edge-list ingestion.
//
// ReadEdgeList used to buffer every parsed edge in a []Edge plus a full
// remap map before the CSR build even started — an O(E) intermediate that
// dominated peak memory and wall time exactly where billion-edge ingest
// (Section 5's headline scale) hurts most. The ingester below removes the
// intermediate: the input is split into one contiguous byte-range shard
// per worker, aligned to newline boundaries, and parsed in multiple cheap
// passes that feed assembleCSR, the package's one counting sort, directly —
//
//   - PreserveIDs mode (dense inputs, e.g. packed or written by
//     WriteEdgeList): a scan pass finds max ID and the "# vertices:"
//     header; a count pass fills assembleCSR's budget-capped groups×V
//     histogram; a scatter pass writes destinations straight into the
//     duplicate-inclusive CSR layout. No map, no edge list: peak memory is
//     the CSR being built plus the capped histogram.
//   - Remap mode (sparse raw IDs): pass 1 additionally records each
//     shard's raw IDs in local first-appearance order with a per-shard
//     map; merging those orders in shard order reproduces the sequential
//     reader's dense remap bit for bit (an ID's global first appearance
//     lies in the earliest shard that saw it, at its first position
//     there). Per-shard maps are inherent to parallel remapping and cost
//     O(distinct IDs) per shard in the worst case — for graphs near
//     memory scale, pack once with PreserveIDs instead.
//
// Each histogram group counts and scatters a contiguous run of shards.
// After scattering, assembleCSR's finishCSR pass sorts, deduplicates and
// compacts the rows; scatter order inside a row is irrelevant because rows
// are sorted afterwards, which is what lets any grouping of shards write
// without synchronisation. Results are bit-identical to a sequential read
// for any worker count.
const (
	// ingestChunkBytes is the per-read granularity of the shard scanners.
	ingestChunkBytes = 512 << 10
	// minShardBytes keeps tiny inputs serial: below this per-shard size the
	// goroutine fan-out costs more than it saves.
	minShardBytes = 256 << 10
	// maxLineBytes bounds a single line (the old bufio.Scanner limit was
	// 1 MiB and surfaced as a bare "token too long" with no context; the
	// chunked scanner raises it 64-fold and reports the line number, but an
	// unbounded carry buffer would let one malformed line exhaust memory).
	maxLineBytes = 64 << 20
)

// parseError carries the byte offset of the line that failed so the caller
// can report a line number without every shard counting lines it skips.
type parseError struct {
	off int64
	err error
}

func (e *parseError) Error() string { return e.err.Error() }
func (e *parseError) Unwrap() error { return e.err }

// ingest carries the state shared by the ingestion passes.
type ingest struct {
	ra         io.ReaderAt
	start, end int64
	opts       ReadOptions
	workers    int
	shards     []ingestShard
}

func (in *ingest) shardLo(w int) int64 {
	return in.start + (in.end-in.start)*int64(w)/int64(in.workers)
}

// scanShard runs fn over shard w's lines through the shard's reusable
// chunk buffer.
func (in *ingest) scanShard(w int, fn func(off int64, line []byte) error) error {
	return forEachLine(in.ra, in.start, in.shardLo(w), in.shardLo(w+1), in.end, &in.shards[w].buf, fn)
}

// readEdgeListAt parses the SNAP-style edge list stored in ra's bytes
// [start, end) with the streaming parallel ingester; ReadEdgeList
// delegates here for files and in-memory buffers.
func readEdgeListAt(ra io.ReaderAt, start, end int64, opts ReadOptions) (*Digraph, error) {
	if end < start {
		end = start
	}
	in := &ingest{
		ra: ra, start: start, end: end, opts: opts,
		workers: ingestShards(end-start, opts),
	}
	in.shards = make([]ingestShard, in.workers)

	// Pass 1. Both modes validate every line and resolve the vertex space;
	// remap mode also records the per-shard first-appearance orders and
	// degree counts (it has to touch a map per edge anyway — fusing the
	// count into the same pass is free, unlike preserve mode where a
	// dedicated count pass lets the counter table be budget-capped).
	errs := make([]error, in.workers)
	forEachWorker(in.workers, func(w int) {
		s := &in.shards[w]
		s.headerV = -1
		if !opts.PreserveIDs {
			s.local = make(map[uint64]uint32)
		}
		errs[w] = in.scanShard(w, s.pass1(opts))
	})
	if err := firstParseError(ra, start, errs); err != nil {
		return nil, err
	}
	n, err := in.resolveVertexSpace()
	if err != nil {
		return nil, err
	}

	// The shards are split into assembleCSR's histogram groups, each
	// counting and scattering its shards in order through one row.
	// Preserve mode counts in a dedicated pass straight into the row;
	// remap mode counted during pass 1 and translates the shards' local
	// counts. The scatter pass re-parses and places destinations. Only
	// valid inputs reach it, so its per-line callbacks skip anything but
	// well-formed edges.
	csr, err := assembleCSR(n, in.workers, in.workers, opts.WithInEdges,
		func(g, groups int, row []int64) error {
			lo, hi := edgeRange(g, groups, in.workers)
			for w := lo; w < hi; w++ {
				if opts.PreserveIDs {
					if err := in.scanShard(w, countLine(opts, row)); err != nil {
						return err
					}
					continue
				}
				s := &in.shards[w]
				for l, c := range s.counts {
					row[s.globalOf[l]] += int64(c)
				}
			}
			return nil
		},
		func(g, groups int, cur []int64, adj []VertexID) error {
			lo, hi := edgeRange(g, groups, in.workers)
			for w := lo; w < hi; w++ {
				if err := in.scanShard(w, in.shards[w].scatter(opts, cur, adj)); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("graph: reread: %w", err)
	}
	return csr, nil
}

// resolveVertexSpace merges the shards' pass-1 results into the vertex
// count, honoring the "# vertices:" header in PreserveIDs mode and filling
// the shards' local→global remap tables otherwise.
func (in *ingest) resolveVertexSpace() (int, error) {
	if in.opts.PreserveIDs {
		headerV := int64(-1)
		for i := range in.shards {
			if hv := in.shards[i].headerV; hv >= 0 {
				if headerV >= 0 && headerV != hv {
					return 0, fmt.Errorf("graph: conflicting '# vertices:' headers (%d and %d)", headerV, hv)
				}
				headerV = hv
			}
		}
		var maxRaw uint64
		sawEdge := false
		for i := range in.shards {
			if in.shards[i].sawEdge {
				sawEdge = true
				maxRaw = max(maxRaw, in.shards[i].maxRaw)
			}
		}
		n := 0
		if sawEdge {
			n = int(maxRaw) + 1
		}
		if headerV >= 0 {
			// headerV <= 2^32 is guaranteed by parseVerticesHeader, which
			// treats anything larger as an ordinary comment.
			if sawEdge && int64(maxRaw) >= headerV {
				return 0, fmt.Errorf("graph: vertex id %d out of range for '# vertices: %d' header", maxRaw, headerV)
			}
			n = int(headerV)
		}
		return n, nil
	}
	// Sequential merge of the shards' local first-appearance orders, in
	// shard order, reproduces the sequential reader's dense remap bit for
	// bit (see the package comment above).
	distinct := 0
	for i := range in.shards {
		distinct += len(in.shards[i].order)
	}
	global := make(map[uint64]VertexID, distinct)
	for i := range in.shards {
		s := &in.shards[i]
		s.globalOf = make([]VertexID, len(s.order))
		for l, raw := range s.order {
			id, ok := global[raw]
			if !ok {
				id = VertexID(len(global))
				global[raw] = id
			}
			s.globalOf[l] = id
		}
	}
	return len(global), nil
}

// ingestShards picks the shard fan-out: the configured worker count, or
// GOMAXPROCS capped so every shard gets a meaningful amount of input.
func ingestShards(size int64, opts ReadOptions) int {
	if opts.Workers > 0 {
		return opts.Workers
	}
	w := runtime.GOMAXPROCS(0)
	if maxW := int(size/minShardBytes) + 1; w > maxW {
		w = maxW
	}
	return max(w, 1)
}

// ingestShard is one byte-range shard's parse state across the passes.
type ingestShard struct {
	buf []byte // chunk buffer, reused across passes

	// Remap mode: raw IDs interned densely per shard in first-appearance
	// order; counts is the duplicate-inclusive degree contribution per
	// local ID, globalOf the local→global translation filled by the merge.
	local    map[uint64]uint32
	order    []uint64
	counts   []uint32
	globalOf []VertexID

	// PreserveIDs mode.
	maxRaw uint64

	sawEdge bool
	headerV int64 // value of a '# vertices: N' header seen in this shard (-1: none)
}

func (s *ingestShard) intern(raw uint64) uint32 {
	if l, ok := s.local[raw]; ok {
		return l
	}
	l := uint32(len(s.order))
	s.local[raw] = l
	s.order = append(s.order, raw)
	s.counts = append(s.counts, 0)
	return l
}

// pass1 returns the per-line validation callback: max-ID/header tracking
// in preserve mode, interning plus degree counting in remap mode.
func (s *ingestShard) pass1(opts ReadOptions) func(off int64, line []byte) error {
	return func(off int64, line []byte) error {
		src, dst, kind, err := parseEdgeLine(line)
		if err != nil {
			return &parseError{off: off, err: err}
		}
		switch kind {
		case lineSkip:
			return nil
		case lineHeader:
			// The header only means something in PreserveIDs mode; the
			// dense remap ignores it like any other comment (concatenated
			// WriteEdgeList outputs stay valid remap inputs).
			if opts.PreserveIDs {
				v := int64(src)
				if s.headerV >= 0 && s.headerV != v {
					return &parseError{off: off, err: fmt.Errorf("conflicting '# vertices:' headers (%d and %d)", s.headerV, v)}
				}
				s.headerV = v
			}
			return nil
		}
		s.sawEdge = true
		if opts.PreserveIDs {
			s.maxRaw = max(s.maxRaw, src, dst)
			return nil
		}
		ls := s.intern(src)
		ld := s.intern(dst)
		if src == dst {
			return nil // self-loops are dropped, matching the Builder
		}
		if s.counts[ls] == math.MaxUint32 {
			return &parseError{off: off, err: fmt.Errorf("vertex %d: per-shard edge count overflows uint32", src)}
		}
		s.counts[ls]++
		if opts.Symmetrize {
			if s.counts[ld] == math.MaxUint32 {
				return &parseError{off: off, err: fmt.Errorf("vertex %d: per-shard edge count overflows uint32", dst)}
			}
			s.counts[ld]++
		}
		return nil
	}
}

// countLine returns the preserve-mode counting callback writing into one
// group's row of the count table.
func countLine(opts ReadOptions, row []int64) func(off int64, line []byte) error {
	return func(_ int64, line []byte) error {
		src, dst, kind, err := parseEdgeLine(line)
		if err != nil || kind != lineEdge || src == dst {
			return nil // pass 1 already validated; only kept edges count
		}
		row[src]++
		if opts.Symmetrize {
			row[dst]++
		}
		return nil
	}
}

// scatter returns the per-line scatter callback writing through cur.
func (s *ingestShard) scatter(opts ReadOptions, cur []int64, adj []VertexID) func(off int64, line []byte) error {
	return func(_ int64, line []byte) error {
		src, dst, kind, err := parseEdgeLine(line)
		if err != nil || kind != lineEdge || src == dst {
			return nil
		}
		var gs, gd VertexID
		if opts.PreserveIDs {
			gs, gd = VertexID(src), VertexID(dst)
		} else {
			gs = s.globalOf[s.local[src]]
			gd = s.globalOf[s.local[dst]]
		}
		adj[cur[gs]] = gd
		cur[gs]++
		if opts.Symmetrize {
			adj[cur[gd]] = gs
			cur[gd]++
		}
		return nil
	}
}

// firstParseError turns the shards' errors into the sequential reader's
// contract: shards cover the input in order and each stops at its first
// failure, so the lowest failing shard holds the earliest bad line, which
// is reported with its 1-based line number (counted only on the error
// path).
func firstParseError(ra io.ReaderAt, start int64, errs []error) error {
	err := firstError(errs)
	var pe *parseError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &pe):
		return fmt.Errorf("graph: line %d: %w", lineNumberAt(ra, start, pe.off), pe.err)
	default:
		return fmt.Errorf("graph: read: %w", err)
	}
}

// lineNumberAt returns the 1-based line number of the line starting at off.
func lineNumberAt(ra io.ReaderAt, start, off int64) int {
	buf := make([]byte, ingestChunkBytes)
	n := 1
	for pos := start; pos < off; {
		m, err := ra.ReadAt(buf[:min(int64(len(buf)), off-pos)], pos)
		if m <= 0 {
			break
		}
		n += bytes.Count(buf[:m], []byte{'\n'})
		pos += int64(m)
		if err != nil {
			break
		}
	}
	return n
}

package wire

// The frame codec: length-prefixed, CRC-32C-checksummed flat sections in
// the .sgr style of internal/graph/snapshot.go. Each element type and each
// record kind has one decoder, in append form: Recv decodes into fresh
// exact-size slices, a worker into the buffers it reuses.
//
// Every frame is
//
//	offset  size  field
//	0       4     magic "SWF3"
//	4       1     kind (the Kind enum)
//	5       1     flags (bit 0: payload deflate-compressed; bit 1: final)
//	6       1     step (core.DistStep, 0 when the kind carries none)
//	7       1     reserved, must be 0
//	8       4     rawLen: payload length before compression (LE)
//	12      4     wireLen: payload length on the wire (LE)
//	16      4     CRC-32C of bytes [0,16)
//	20      wireLen  payload
//	20+wireLen  4    CRC-32C of the wire payload
//
// Batch payloads (partials, foreign, refresh, mirrors) are a u32 record
// count followed by self-delimiting records, so a coordinator can route
// individual records by scanning headers and copying raw bytes — no decode,
// no re-encode. All integers are little-endian; floats are IEEE 754 bits.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"snaple/internal/core"
	"snaple/internal/graph"
)

const (
	frameMagic       = "SWF3"
	frameHeaderSize  = 20
	frameTrailerSize = 4

	// FrameMaxPayload caps a single frame's payload (raw and on-wire): large
	// enough for any ship, small enough that a lying length prefix cannot
	// request an absurd allocation (and reads grow in readChunk steps, so
	// even a maximal lie allocates no more than the bytes that arrive).
	FrameMaxPayload = 1 << 30

	flagCompressed = 1 << 0
	flagFinal      = 1 << 1
	flagsKnown     = flagCompressed | flagFinal

	// readChunk bounds each allocation step while reading a payload, so a
	// truncated stream with a lying length errors out after at most one
	// wasted chunk instead of after a giant up-front make.
	readChunk = 256 << 10

	// compressMin is the smallest payload worth deflating; below it the
	// flate header overhead wins.
	compressMin = 512

	// compressLevel trades deflate CPU for ratio. The wire carries highly
	// regular flat sections (sorted u32 ID columns, f64 score columns), where
	// the default level's longer match search buys a materially smaller
	// stream than BestSpeed for a compute cost the supersteps absorb.
	compressLevel = flate.DefaultCompression

	// featCompress is the hello feature bit requesting per-frame compression.
	featCompress uint32 = 1 << 0
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errNotFrame marks bytes that are not a frame (bad magic).
var errNotFrame = errors.New("wire: not a frame (bad magic)")

// ---- little-endian append/read primitives ----

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// byteReader is a sticky-error cursor over a decoded payload. Every read
// bounds-checks against the remaining bytes, so lying counts fail cleanly
// instead of panicking or over-allocating.
type byteReader struct {
	b   []byte
	off int
	err error
}

func (r *byteReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (r *byteReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.fail("truncated payload: need %d bytes at offset %d of %d", n, r.off, len(r.b))
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *byteReader) u8() byte {
	s := r.bytes(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *byteReader) u32() uint32 {
	s := r.bytes(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (r *byteReader) u64() uint64 {
	s := r.bytes(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *byteReader) f64() float64 { return math.Float64frombits(r.u64()) }

// count validates an element count against the remaining bytes (elemSize is
// the minimum encoded size per element) before the caller sizes anything
// from it: the one allocation rule every decoder below runs.
func (r *byteReader) count(n uint32, elemSize int) int {
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(elemSize) > int64(len(r.b)-r.off) {
		r.fail("count %d (×%d B) exceeds remaining %d bytes", n, elemSize, len(r.b)-r.off)
		return 0
	}
	return int(n)
}

// column consumes n elements of size bytes each, counted first.
func (r *byteReader) column(n uint32, size int) []byte { return r.bytes(r.count(n, size) * size) }

// done checks the sticky error and that the payload was consumed exactly.
func (r *byteReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes after payload", len(r.b)-r.off)
	}
	return nil
}

// ---- flat array sections ----

func appendVertexIDs(b []byte, v []graph.VertexID) []byte {
	for _, x := range v {
		b = appendU32(b, uint32(x))
	}
	return b
}

func appendVertexSims(b []byte, v []core.VertexSim) []byte {
	for _, x := range v {
		b = appendU32(b, uint32(x.V))
		b = appendF64(b, x.Sim)
	}
	return b
}

func appendPathCands(b []byte, v []core.PathCand) []byte {
	for _, x := range v {
		b = appendU32(b, uint32(x.Z))
		b = appendF64(b, x.S)
	}
	return b
}

func appendPredictions(b []byte, v []core.Prediction) []byte {
	for _, x := range v {
		b = appendU32(b, uint32(x.Vertex))
		b = appendF64(b, x.Score)
	}
	return b
}

// The column decoders append n decoded elements to dst: pass nil for an
// exact-size column, dst[:0] to overwrite a reused one, dst to accumulate.
// Each is the only decoder of its element type.

// extend lengthens dst by n elements for a decoder to fill in place: an
// exact-size slice when dst is nil, amortised growth otherwise.
func extend[T any](dst []T, n int) []T {
	if dst == nil && n > 0 {
		return make([]T, n)
	}
	return slices.Grow(dst, n)[:len(dst)+n]
}

func (r *byteReader) vertexIDs(dst []graph.VertexID, n uint32) []graph.VertexID {
	raw := r.column(n, 4)
	k := len(dst)
	dst = extend(dst, len(raw)/4)
	for i := range dst[k:] {
		dst[k+i] = graph.VertexID(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return dst
}

// pairAt reads the i-th 12-byte (vertex, float) element of raw.
func pairAt(raw []byte, i int) (graph.VertexID, float64) {
	b := raw[12*i : 12*i+12]
	return graph.VertexID(binary.LittleEndian.Uint32(b)), math.Float64frombits(binary.LittleEndian.Uint64(b[4:]))
}

func (r *byteReader) vertexSims(dst []core.VertexSim, n uint32) []core.VertexSim {
	raw := r.column(n, 12)
	k := len(dst)
	dst = extend(dst, len(raw)/12)
	for i := range dst[k:] {
		dst[k+i].V, dst[k+i].Sim = pairAt(raw, i)
	}
	return dst
}

func (r *byteReader) pathCands(dst []core.PathCand, n uint32) []core.PathCand {
	raw := r.column(n, 12)
	k := len(dst)
	dst = extend(dst, len(raw)/12)
	for i := range dst[k:] {
		dst[k+i].Z, dst[k+i].S = pairAt(raw, i)
	}
	return dst
}

func (r *byteReader) predictions(dst []core.Prediction, n uint32) []core.Prediction {
	raw := r.column(n, 12)
	k := len(dst)
	dst = extend(dst, len(raw)/12)
	for i := range dst[k:] {
		dst[k+i].Vertex, dst[k+i].Score = pairAt(raw, i)
	}
	return dst
}

// ---- batch records ----
//
// A batch payload is a u32 record count followed by self-delimiting
// records. A record is a u32 vertex, one u32 count per column, then the
// columns: 4-byte IDs first, 12-byte (ID, float) pairs after. Partial
// records carry Nbrs, Sims and Cands; state records carry what a mirror
// reads, Nbrs and Sims. No state record carries predictions: the last
// superstep writes them and skips the refresh round.

// recordColumns is the column count of kind's batch records.
func recordColumns(kind Kind) int {
	if kind == KindRefresh || kind == KindMirrors {
		return 2
	}
	return 3
}

// appendPartialRecord appends one DistPartial as a partial record.
func appendPartialRecord(b []byte, dp *core.DistPartial) []byte {
	b = appendU32(b, uint32(dp.V))
	b = appendU32(b, uint32(len(dp.Nbrs)))
	b = appendU32(b, uint32(len(dp.Sims)))
	b = appendU32(b, uint32(len(dp.Cands)))
	b = appendVertexIDs(b, dp.Nbrs)
	b = appendVertexSims(b, dp.Sims)
	b = appendPathCands(b, dp.Cands)
	return b
}

// appendStateRecord appends the mirror-read half of a VData replica, Γ̂ and
// the relays, as a state record.
func appendStateRecord(b []byte, v graph.VertexID, d *core.VData) []byte {
	b = appendU32(b, uint32(v))
	b = appendU32(b, uint32(len(d.Nbrs)))
	b = appendU32(b, uint32(len(d.Sims)))
	b = appendVertexIDs(b, d.Nbrs)
	b = appendVertexSims(b, d.Sims)
	return b
}

// batchCount reads a batch payload's record count, refusing one the payload
// cannot hold (every record is at least its header), so callers may size
// from it.
func batchCount(kind Kind, payload []byte) (int, error) {
	if len(payload) < 4 {
		return 0, fmt.Errorf("wire: batch payload too short (%d bytes)", len(payload))
	}
	n := binary.LittleEndian.Uint32(payload)
	if int64(n)*int64(4+4*recordColumns(kind)) > int64(len(payload)-4) {
		return 0, fmt.Errorf("wire: batch count %d exceeds payload", n)
	}
	return int(n), nil
}

// ForEachRecord walks a batch payload of kind, bounds-checking each record
// and handing fn its vertex and raw bytes. It is the one record walker: the
// coordinator routes on v and copies rec verbatim into the master's outgoing
// batch with zero decode, and everything that decodes a record first finds
// it here.
func ForEachRecord(kind Kind, payload []byte, fn func(v graph.VertexID, rec []byte) error) error {
	n, err := batchCount(kind, payload)
	if err != nil {
		return err
	}
	cols := recordColumns(kind)
	hdr := 4 + 4*cols
	off := 4
	for range n {
		if len(payload)-off < hdr {
			return fmt.Errorf("wire: truncated %s record header at offset %d", kind, off)
		}
		size := int64(hdr) + 4*int64(binary.LittleEndian.Uint32(payload[off+4:]))
		for c := 1; c < cols; c++ {
			size += 12 * int64(binary.LittleEndian.Uint32(payload[off+4+4*c:]))
		}
		if size > int64(len(payload)-off) {
			return fmt.Errorf("wire: %s record at offset %d claims %d bytes, %d remain", kind, off, size, len(payload)-off)
		}
		end := off + int(size)
		if err := fn(graph.VertexID(binary.LittleEndian.Uint32(payload[off:])), payload[off:end]); err != nil {
			return err
		}
		off = end
	}
	if off != len(payload) {
		return fmt.Errorf("wire: %d trailing bytes after %d batch records", len(payload)-off, n)
	}
	return nil
}

// decodePartialRecord is the one partial-record decoder: it appends rec's
// columns to dp's (see the column decoders for the three uses). The vertex
// is ForEachRecord's to report; dp.V is left to the caller.
func decodePartialRecord(dp *core.DistPartial, rec []byte) error {
	r := &byteReader{b: rec, off: 4}
	nN, nS, nC := r.u32(), r.u32(), r.u32()
	dp.Nbrs = r.vertexIDs(dp.Nbrs, nN)
	dp.Sims = r.vertexSims(dp.Sims, nS)
	dp.Cands = r.pathCands(dp.Cands, nC)
	return r.done()
}

// decodeStateRecord is the one state-record decoder: it appends rec's
// columns to d's, the vertex left to ForEachRecord like decodePartialRecord's.
func decodeStateRecord(d *core.VData, rec []byte) error {
	r := &byteReader{b: rec, off: 4}
	nN, nS := r.u32(), r.u32()
	d.Nbrs = r.vertexIDs(d.Nbrs, nN)
	d.Sims = r.vertexSims(d.Sims, nS)
	return r.done()
}

// ---- batch building ----

// BatchBuilder assembles a partial- or state-batch payload incrementally:
// a u32 record count slot followed by records. The buffer is reused across
// Reset calls, so steady-state batches allocate nothing. Call Reset before
// first use.
type BatchBuilder struct {
	buf []byte
	n   uint32
}

// Reset empties the builder, keeping its capacity.
func (bb *BatchBuilder) Reset() {
	if cap(bb.buf) < 4 {
		bb.buf = make([]byte, 4, 4096)
	} else {
		bb.buf = bb.buf[:4]
	}
	bb.n = 0
}

// Grow reserves capacity for n payload bytes, so builders sized for a known
// chunk threshold can be paid for at setup instead of by doubling inside the
// exchange. Call after Reset.
func (bb *BatchBuilder) Grow(n int) {
	bb.buf = slices.Grow(bb.buf, n)
}

// Len returns the payload size built so far (including the count slot).
func (bb *BatchBuilder) Len() int { return len(bb.buf) }

// Count returns the number of records appended since Reset.
func (bb *BatchBuilder) Count() int { return int(bb.n) }

// AppendPartial encodes dp as the next record.
func (bb *BatchBuilder) AppendPartial(dp *core.DistPartial) {
	bb.buf = appendPartialRecord(bb.buf, dp)
	bb.n++
}

// AppendState encodes (v, d) as the next record.
func (bb *BatchBuilder) AppendState(v graph.VertexID, d *core.VData) {
	bb.buf = appendStateRecord(bb.buf, v, d)
	bb.n++
}

// AppendRaw copies an already-encoded record verbatim (the coordinator's
// zero-decode routing path).
func (bb *BatchBuilder) AppendRaw(rec []byte) {
	bb.buf = append(bb.buf, rec...)
	bb.n++
}

// Payload finalises the count slot and returns the payload, valid until the
// next Reset.
func (bb *BatchBuilder) Payload() []byte {
	binary.LittleEndian.PutUint32(bb.buf, bb.n)
	return bb.buf
}

// ---- whole-message payload codecs ----

// appendMsgPayload encodes m's payload for its kind and returns the flag
// bits the frame header should carry.
func appendMsgPayload(b []byte, m *Msg) ([]byte, byte, error) {
	var flags byte
	if m.Final {
		flags |= flagFinal
	}
	switch m.Kind {
	case KindHello:
		b = appendU32(b, uint32(m.Version))
		b = appendU32(b, m.Features)
	case KindShip:
		// The shard travels in its file format, so the worker installs it
		// through graph.ReadShard, the decoder resident shards load through.
		b = appendU32(b, uint32(m.Version))
		buf := bytes.NewBuffer(b)
		if err := graph.EncodeShard(buf, &m.Shard); err != nil {
			return nil, 0, err
		}
		b = buf.Bytes()
	case KindAttach:
		var err error
		if b, err = appendAttach(b, m); err != nil {
			return nil, 0, err
		}
	case KindReady, KindStepBegin, KindCollect:
		// header-only
	case KindPartials, KindForeign:
		b = appendU32(b, uint32(len(m.Partials)))
		for i := range m.Partials {
			b = appendPartialRecord(b, &m.Partials[i])
		}
	case KindRefresh, KindMirrors:
		b = appendU32(b, uint32(len(m.States)))
		for i := range m.States {
			b = appendStateRecord(b, m.States[i].V, &m.States[i].Data)
		}
	case KindResult:
		b = appendResult(b, &m.Result)
	case KindError:
		b = append(b, m.Err...)
	default:
		return nil, 0, fmt.Errorf("wire: cannot encode %s", m.Kind)
	}
	return b, flags, nil
}

// decodeMsgPayload reconstructs the Msg a frame carries.
func decodeMsgPayload(kind Kind, flags byte, step core.DistStep, payload []byte) (*Msg, error) {
	m := &Msg{Kind: kind, Step: step, Final: flags&flagFinal != 0}
	switch kind {
	case KindHello:
		r := &byteReader{b: payload}
		m.Version = int(r.u32())
		m.Features = r.u32()
		if err := r.done(); err != nil {
			return nil, err
		}
	case KindShip:
		r := &byteReader{b: payload}
		m.Version = int(r.u32())
		if r.err != nil {
			return nil, r.err
		}
		shard, err := graph.ReadShard(bytes.NewReader(payload[4:]))
		if err != nil {
			return nil, err
		}
		m.Shard = *shard
	case KindAttach:
		if err := decodeAttach(payload, m); err != nil {
			return nil, err
		}
	case KindReady, KindStepBegin, KindCollect:
		if len(payload) != 0 {
			return nil, fmt.Errorf("wire: %s frame with %d payload bytes", kind, len(payload))
		}
	case KindPartials, KindForeign:
		n, err := batchCount(kind, payload)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			m.Partials = make([]core.DistPartial, 0, n)
		}
		err = ForEachRecord(kind, payload, func(v graph.VertexID, rec []byte) error {
			m.Partials = append(m.Partials, core.DistPartial{V: v})
			return decodePartialRecord(&m.Partials[len(m.Partials)-1], rec)
		})
		if err != nil {
			return nil, err
		}
	case KindRefresh, KindMirrors:
		n, err := batchCount(kind, payload)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			m.States = make([]VertexState, 0, n)
		}
		err = ForEachRecord(kind, payload, func(v graph.VertexID, rec []byte) error {
			m.States = append(m.States, VertexState{V: v})
			return decodeStateRecord(&m.States[len(m.States)-1].Data, rec)
		})
		if err != nil {
			return nil, err
		}
	case KindResult:
		if err := decodeResult(payload, &m.Result); err != nil {
			return nil, err
		}
	case KindError:
		m.Err = string(payload)
	default:
		return nil, fmt.Errorf("wire: unknown frame kind %d", uint8(kind))
	}
	return m, nil
}

// appendJob encodes a JobSpec (part of the attach payload).
func appendJob(b []byte, j *JobSpec) []byte {
	b = appendU32(b, uint32(len(j.Score)))
	b = append(b, j.Score...)
	b = appendF64(b, j.Alpha)
	b = appendU32(b, uint32(j.K))
	b = appendU32(b, uint32(j.KLocal))
	b = appendU32(b, uint32(j.ThrGamma))
	b = appendU32(b, uint32(j.Policy))
	b = appendU64(b, j.Seed)
	return b
}

func decodeJob(r *byteReader, j *JobSpec) {
	j.Score = string(r.bytes(r.count(r.u32(), 1)))
	j.Alpha = r.f64()
	j.K = int(r.u32())
	j.KLocal = int(r.u32())
	j.ThrGamma = int(r.u32())
	j.Policy = core.SelectionPolicy(r.u32())
	j.Seed = r.u64()
}

// appendAttach encodes the attach handshake: version, job spec, fleet
// identity and the scoped slot columns — never the partition itself.
func appendAttach(b []byte, m *Msg) ([]byte, error) {
	a := &m.Attach
	if n := len(a.Verts); len(a.Masks) != n || len(a.Roles) != n {
		return nil, fmt.Errorf("wire: attach with %d vertices, %d masks and %d roles", n, len(a.Masks), len(a.Roles))
	}
	b = appendU32(b, uint32(m.Version))
	b = appendJob(b, &m.Job)
	b = appendU64(b, a.Fingerprint)
	b = appendU32(b, uint32(a.Shard))
	b = appendU32(b, uint32(a.Shards))
	if a.Scoped {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendU32(b, uint32(len(a.Verts)))
	b = appendVertexIDs(b, a.Verts)
	b = append(b, a.Masks...)
	return append(b, a.Roles...), nil
}

func decodeAttach(payload []byte, m *Msg) error {
	r := &byteReader{b: payload}
	m.Version = int(r.u32())
	decodeJob(r, &m.Job)
	a := &m.Attach
	a.Fingerprint = r.u64()
	a.Shard = int32(r.u32())
	a.Shards = int32(r.u32())
	switch scoped := r.u8(); scoped {
	case 0:
	case 1:
		a.Scoped = true
	default:
		r.fail("scoped flag byte %d", scoped)
	}
	n := r.count(r.u32(), 6) // 4 (vertex) + 1 (mask) + 1 (role) bytes per slot
	a.Verts = r.vertexIDs(nil, uint32(n))
	// One copy for both byte columns: the payload is the connection's buffer.
	if cols := r.bytes(2 * n); n > 0 && r.err == nil {
		cols = slices.Clone(cols)
		a.Masks, a.Roles = cols[:n:n], cols[n:]
	}
	return r.done()
}

// appendResult encodes the collect-phase payload.
func appendResult(b []byte, res *WorkerResult) []byte {
	b = appendU32(b, uint32(res.Part))
	b = appendU64(b, uint64(res.Stats.Verts))
	b = appendU64(b, uint64(res.Stats.Edges))
	b = appendF64(b, res.Stats.BusySeconds)
	b = appendU64(b, uint64(res.Stats.AllocBytes))
	b = appendU64(b, uint64(res.Stats.AllocObjects))
	b = appendU64(b, uint64(res.Stats.HeapBytes))
	b = appendU32(b, uint32(len(res.Preds)))
	for i := range res.Preds {
		b = appendU32(b, uint32(res.Preds[i].V))
		b = appendU32(b, uint32(len(res.Preds[i].Preds)))
		b = appendPredictions(b, res.Preds[i].Preds)
	}
	return b
}

func decodeResult(payload []byte, res *WorkerResult) error {
	r := &byteReader{b: payload}
	res.Part = int(r.u32())
	res.Stats.Verts = int(r.u64())
	res.Stats.Edges = int(r.u64())
	res.Stats.BusySeconds = r.f64()
	res.Stats.AllocBytes = int64(r.u64())
	res.Stats.AllocObjects = int64(r.u64())
	res.Stats.HeapBytes = int64(r.u64())
	n := r.count(r.u32(), 8) // min bytes per entry: vertex + count
	if n > 0 {
		res.Preds = make([]VertexPreds, 0, n)
	}
	for i := 0; i < n; i++ {
		var vp VertexPreds
		vp.V = graph.VertexID(r.u32())
		vp.Preds = r.predictions(nil, r.u32())
		if r.err != nil {
			return r.err
		}
		res.Preds = append(res.Preds, vp)
	}
	return r.done()
}

// ---- frame I/O ----

// writeFrame emits one frame, deflating the payload when compression is
// negotiated, the payload is worth it, and it actually shrinks. Hellos stay
// plain so negotiation never depends on what it negotiates.
func (c *Conn) writeFrame(kind Kind, flags byte, step core.DistStep, payload []byte) error {
	if len(payload) > FrameMaxPayload {
		return fmt.Errorf("wire: %s payload %d bytes exceeds frame cap", kind, len(payload))
	}
	wirePayload := payload
	if c.compress && kind != KindHello && len(payload) >= compressMin {
		if z, ok := c.deflate(payload); ok {
			wirePayload = z
			flags |= flagCompressed
		}
	}
	hdr := c.whdr[:]
	copy(hdr[0:4], frameMagic)
	hdr[4] = byte(kind)
	hdr[5] = flags
	hdr[6] = byte(step)
	hdr[7] = 0
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(wirePayload)))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(hdr[:16], castagnoli))
	if _, err := c.bw.Write(hdr); err != nil {
		return fmt.Errorf("wire: send %s: %w", kind, err)
	}
	if _, err := c.bw.Write(wirePayload); err != nil {
		return fmt.Errorf("wire: send %s: %w", kind, err)
	}
	var tr [frameTrailerSize]byte
	binary.LittleEndian.PutUint32(tr[:], crc32.Checksum(wirePayload, castagnoli))
	if _, err := c.bw.Write(tr[:]); err != nil {
		return fmt.Errorf("wire: send %s: %w", kind, err)
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("wire: send %s: %w", kind, err)
	}
	c.crw.msgOut.Add(1)
	return nil
}

// readFrame reads and verifies one frame. The returned payload is a view
// into the connection's scratch, valid until the next read.
func (c *Conn) readFrame() (kind Kind, flags byte, step core.DistStep, payload []byte, err error) {
	hdr := c.rhdr[:]
	if _, err := io.ReadFull(c.br, hdr); err != nil {
		if err == io.EOF {
			return 0, 0, 0, nil, io.EOF
		}
		return 0, 0, 0, nil, fmt.Errorf("wire: read frame header: %w", err)
	}
	if string(hdr[0:4]) != frameMagic {
		return 0, 0, 0, nil, errNotFrame
	}
	if got, want := crc32.Checksum(hdr[:16], castagnoli), binary.LittleEndian.Uint32(hdr[16:]); got != want {
		return 0, 0, 0, nil, fmt.Errorf("wire: frame header CRC mismatch (%08x != %08x)", got, want)
	}
	kind = Kind(hdr[4])
	flags = hdr[5]
	step = core.DistStep(hdr[6])
	if hdr[7] != 0 {
		return 0, 0, 0, nil, fmt.Errorf("wire: nonzero reserved byte %d", hdr[7])
	}
	if flags&^byte(flagsKnown) != 0 {
		return 0, 0, 0, nil, fmt.Errorf("wire: unknown frame flags %#02x", flags)
	}
	rawLen := binary.LittleEndian.Uint32(hdr[8:])
	wireLen := binary.LittleEndian.Uint32(hdr[12:])
	if rawLen > FrameMaxPayload || wireLen > FrameMaxPayload {
		return 0, 0, 0, nil, fmt.Errorf("wire: frame payload %d/%d bytes exceeds cap", rawLen, wireLen)
	}
	compressed := flags&flagCompressed != 0
	if !compressed && rawLen != wireLen {
		return 0, 0, 0, nil, fmt.Errorf("wire: uncompressed frame with rawLen %d != wireLen %d", rawLen, wireLen)
	}
	if compressed && wireLen >= rawLen {
		return 0, 0, 0, nil, fmt.Errorf("wire: compressed frame grew (%d -> %d)", rawLen, wireLen)
	}
	c.rdBuf, err = readCapped(c.br, c.rdBuf, int(wireLen))
	if err != nil {
		return 0, 0, 0, nil, fmt.Errorf("wire: read %s payload: %w", kind, err)
	}
	var tr [frameTrailerSize]byte
	if _, err := io.ReadFull(c.br, tr[:]); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("wire: read payload CRC: %w", err)
	}
	if got, want := crc32.Checksum(c.rdBuf, castagnoli), binary.LittleEndian.Uint32(tr[:]); got != want {
		return 0, 0, 0, nil, fmt.Errorf("wire: payload CRC mismatch (%08x != %08x)", got, want)
	}
	payload = c.rdBuf
	if compressed {
		payload, err = c.inflate(c.rdBuf, int(rawLen))
		if err != nil {
			return 0, 0, 0, nil, err
		}
	}
	c.crw.msgIn.Add(1)
	return kind, flags, step, payload, nil
}

// readCapped reads exactly n bytes into buf (reused across calls), growing
// in readChunk steps so a lying length never allocates past the bytes that
// actually arrive (plus at most one chunk).
func readCapped(r io.Reader, buf []byte, n int) ([]byte, error) {
	if cap(buf) >= n {
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return buf[:0], err
		}
		return buf, nil
	}
	buf = buf[:0]
	for len(buf) < n {
		chunk := min(n-len(buf), readChunk)
		buf = slices.Grow(buf, chunk)
		buf = buf[:len(buf)+chunk]
		if _, err := io.ReadFull(r, buf[len(buf)-chunk:]); err != nil {
			return buf[:0], err
		}
	}
	return buf, nil
}

// deflate compresses p into the connection's scratch, reporting whether the
// result is actually smaller.
func (c *Conn) deflate(p []byte) ([]byte, bool) {
	if c.fw == nil {
		c.fw, _ = flate.NewWriter(io.Discard, compressLevel)
	}
	c.zwBuf.Reset()
	c.fw.Reset(&c.zwBuf)
	if _, err := c.fw.Write(p); err != nil {
		return nil, false
	}
	if err := c.fw.Close(); err != nil {
		return nil, false
	}
	if c.zwBuf.Len() >= len(p) {
		return nil, false
	}
	return c.zwBuf.Bytes(), true
}

// inflate decompresses src, requiring exactly rawLen output bytes. Growth is
// capped the same way readCapped's is.
func (c *Conn) inflate(src []byte, rawLen int) ([]byte, error) {
	c.zrSrc.Reset(src)
	if c.fr == nil {
		c.fr = flate.NewReader(&c.zrSrc)
	} else if err := c.fr.(flate.Resetter).Reset(&c.zrSrc, nil); err != nil {
		return nil, fmt.Errorf("wire: inflate reset: %w", err)
	}
	var err error
	c.rawBuf, err = readCapped(c.fr, c.rawBuf, rawLen)
	if err != nil {
		return nil, fmt.Errorf("wire: inflate: %w", err)
	}
	var one [1]byte
	if n, err := c.fr.Read(one[:]); n != 0 || err != io.EOF {
		return nil, fmt.Errorf("wire: compressed payload does not end at its declared %d bytes", rawLen)
	}
	return c.rawBuf, nil
}

// preallocCompression eagerly builds the flate machinery (the writer alone
// is ~600 KB) so it is paid at connection setup, outside the measured
// superstep window, not lazily inside it.
func (c *Conn) preallocCompression() {
	if c.fw == nil {
		c.fw, _ = flate.NewWriter(io.Discard, compressLevel)
	}
	if c.fr == nil {
		c.zrSrc.Reset(nil)
		c.fr = flate.NewReader(&c.zrSrc)
	}
}

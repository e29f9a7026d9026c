package wire

// The frame codec: length-prefixed, CRC-32C-checksummed flat sections in
// the .sgr style of internal/graph/snapshot.go, decoded single-copy into
// exact-alloc slices.
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
// the minimum encoded size per element) before the caller preallocates.
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

func appendInt32s(b []byte, v []int32) []byte {
	for _, x := range v {
		b = appendU32(b, uint32(x))
	}
	return b
}

func appendBools(b []byte, v []bool) []byte {
	for _, x := range v {
		if x {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

func (r *byteReader) vertexIDs(n int) []graph.VertexID {
	raw := r.bytes(n * 4)
	if raw == nil || n == 0 {
		return nil
	}
	out := make([]graph.VertexID, n)
	for i := range out {
		out[i] = graph.VertexID(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

func (r *byteReader) vertexSims(n int) []core.VertexSim {
	raw := r.bytes(n * 12)
	if raw == nil || n == 0 {
		return nil
	}
	out := make([]core.VertexSim, n)
	for i := range out {
		out[i].V = graph.VertexID(binary.LittleEndian.Uint32(raw[12*i:]))
		out[i].Sim = math.Float64frombits(binary.LittleEndian.Uint64(raw[12*i+4:]))
	}
	return out
}

// vertexIDsInto and vertexSimsInto are the decode-into twins of vertexIDs /
// vertexSims: they reuse dst's capacity so recurring decodes (the per-step
// mirror refresh) stop allocating once the replica has seen its high-water
// size.
func (r *byteReader) vertexIDsInto(dst []graph.VertexID, n int) []graph.VertexID {
	raw := r.bytes(n * 4)
	if raw == nil || n == 0 {
		return dst[:0]
	}
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = graph.VertexID(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return dst
}

func (r *byteReader) vertexSimsInto(dst []core.VertexSim, n int) []core.VertexSim {
	raw := r.bytes(n * 12)
	if raw == nil || n == 0 {
		return dst[:0]
	}
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i].V = graph.VertexID(binary.LittleEndian.Uint32(raw[12*i:]))
		dst[i].Sim = math.Float64frombits(binary.LittleEndian.Uint64(raw[12*i+4:]))
	}
	return dst
}

func (r *byteReader) pathCandsInto(dst []core.PathCand, n int) []core.PathCand {
	raw := r.bytes(n * 12)
	if raw == nil || n == 0 {
		return dst[:0]
	}
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i].Z = graph.VertexID(binary.LittleEndian.Uint32(raw[12*i:]))
		dst[i].S = math.Float64frombits(binary.LittleEndian.Uint64(raw[12*i+4:]))
	}
	return dst
}

func (r *byteReader) predictionsInto(dst []core.Prediction, n int) []core.Prediction {
	raw := r.bytes(n * 12)
	if raw == nil || n == 0 {
		return dst[:0]
	}
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i].Vertex = graph.VertexID(binary.LittleEndian.Uint32(raw[12*i:]))
		dst[i].Score = math.Float64frombits(binary.LittleEndian.Uint64(raw[12*i+4:]))
	}
	return dst
}

func (r *byteReader) pathCands(n int) []core.PathCand {
	raw := r.bytes(n * 12)
	if raw == nil || n == 0 {
		return nil
	}
	out := make([]core.PathCand, n)
	for i := range out {
		out[i].Z = graph.VertexID(binary.LittleEndian.Uint32(raw[12*i:]))
		out[i].S = math.Float64frombits(binary.LittleEndian.Uint64(raw[12*i+4:]))
	}
	return out
}

func (r *byteReader) predictions(n int) []core.Prediction {
	raw := r.bytes(n * 12)
	if raw == nil || n == 0 {
		return nil
	}
	out := make([]core.Prediction, n)
	for i := range out {
		out[i].Vertex = graph.VertexID(binary.LittleEndian.Uint32(raw[12*i:]))
		out[i].Score = math.Float64frombits(binary.LittleEndian.Uint64(raw[12*i+4:]))
	}
	return out
}

func (r *byteReader) int32s(n int) []int32 {
	raw := r.bytes(n * 4)
	if raw == nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

// bools decodes a strict 0/1 byte column (anything else is a protocol
// error, keeping decode→encode canonical for the fuzz round-trip).
func (r *byteReader) bools(n int) []bool {
	raw := r.bytes(n)
	if raw == nil || n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i, x := range raw {
		switch x {
		case 0:
		case 1:
			out[i] = true
		default:
			r.fail("bool byte %d at index %d", x, i)
			return nil
		}
	}
	return out
}

// ---- partial records ----

const partialRecordHeader = 16 // u32 V | u32 nNbrs | u32 nSims | u32 nCands

// appendPartialRecord appends one DistPartial as a self-delimiting record:
// header, then nNbrs×4B IDs, nSims×12B sims, nCands×12B candidates.
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

// partialRecordAt bounds-checks the record starting at off and returns its
// vertex and end offset without decoding the payload.
func partialRecordAt(b []byte, off int) (v graph.VertexID, end int, err error) {
	if len(b)-off < partialRecordHeader {
		return 0, 0, fmt.Errorf("wire: truncated partial record header at offset %d", off)
	}
	v = graph.VertexID(binary.LittleEndian.Uint32(b[off:]))
	nN := binary.LittleEndian.Uint32(b[off+4:])
	nS := binary.LittleEndian.Uint32(b[off+8:])
	nC := binary.LittleEndian.Uint32(b[off+12:])
	size := int64(partialRecordHeader) + 4*int64(nN) + 12*int64(nS) + 12*int64(nC)
	if size > int64(len(b)-off) {
		return 0, 0, fmt.Errorf("wire: partial record at offset %d claims %d bytes, %d remain", off, size, len(b)-off)
	}
	return v, off + int(size), nil
}

// ForEachPartialRecord walks a partial-batch payload (u32 record count, then
// records), handing fn each record's vertex and raw bytes. The coordinator
// routes on v and copies rec verbatim into the master's outgoing batch —
// zero decode on the routing path.
func ForEachPartialRecord(payload []byte, fn func(v graph.VertexID, rec []byte) error) error {
	if len(payload) < 4 {
		return fmt.Errorf("wire: batch payload too short (%d bytes)", len(payload))
	}
	n := binary.LittleEndian.Uint32(payload)
	off := 4
	for i := uint32(0); i < n; i++ {
		v, end, err := partialRecordAt(payload, off)
		if err != nil {
			return err
		}
		if err := fn(v, payload[off:end]); err != nil {
			return err
		}
		off = end
	}
	if off != len(payload) {
		return fmt.Errorf("wire: %d trailing bytes after %d batch records", len(payload)-off, n)
	}
	return nil
}

// DecodePartialRecord decodes one record into an exact-alloc DistPartial.
func DecodePartialRecord(rec []byte) (core.DistPartial, error) {
	r := &byteReader{b: rec}
	var dp core.DistPartial
	dp.V = graph.VertexID(r.u32())
	nN, nS, nC := r.u32(), r.u32(), r.u32()
	dp.Nbrs = r.vertexIDs(r.count(nN, 4))
	dp.Sims = r.vertexSims(r.count(nS, 12))
	dp.Cands = r.pathCands(r.count(nC, 12))
	return dp, r.done()
}

// decodePartialRecordInto appends the record's payload into dp's slices
// (shared apply scratch), without touching dp.V.
func decodePartialRecordInto(rec []byte, dp *core.DistPartial) error {
	r := &byteReader{b: rec}
	r.u32() // vertex, already routed
	nN, nS, nC := r.u32(), r.u32(), r.u32()
	n := r.count(nN, 4)
	if raw := r.bytes(n * 4); raw != nil {
		for i := 0; i < n; i++ {
			dp.Nbrs = append(dp.Nbrs, graph.VertexID(binary.LittleEndian.Uint32(raw[4*i:])))
		}
	}
	n = r.count(nS, 12)
	if raw := r.bytes(n * 12); raw != nil {
		for i := 0; i < n; i++ {
			dp.Sims = append(dp.Sims, core.VertexSim{
				V:   graph.VertexID(binary.LittleEndian.Uint32(raw[12*i:])),
				Sim: math.Float64frombits(binary.LittleEndian.Uint64(raw[12*i+4:])),
			})
		}
	}
	n = r.count(nC, 12)
	if raw := r.bytes(n * 12); raw != nil {
		for i := 0; i < n; i++ {
			dp.Cands = append(dp.Cands, core.PathCand{
				Z: graph.VertexID(binary.LittleEndian.Uint32(raw[12*i:])),
				S: math.Float64frombits(binary.LittleEndian.Uint64(raw[12*i+4:])),
			})
		}
	}
	return r.done()
}

// ---- state records ----

const stateRecordHeader = 20 // u32 V | u32 nNbrs | u32 nSims | u32 nTwoHop | u32 nPred

// appendStateRecord appends a full VData replica as a self-delimiting record.
func appendStateRecord(b []byte, v graph.VertexID, d *core.VData) []byte {
	b = appendU32(b, uint32(v))
	b = appendU32(b, uint32(len(d.Nbrs)))
	b = appendU32(b, uint32(len(d.Sims)))
	b = appendU32(b, uint32(len(d.TwoHop)))
	b = appendU32(b, uint32(len(d.Pred)))
	b = appendVertexIDs(b, d.Nbrs)
	b = appendVertexSims(b, d.Sims)
	b = appendPathCands(b, d.TwoHop)
	b = appendPredictions(b, d.Pred)
	return b
}

// stateRecordAt bounds-checks the state record at off; see partialRecordAt.
func stateRecordAt(b []byte, off int) (v graph.VertexID, end int, err error) {
	if len(b)-off < stateRecordHeader {
		return 0, 0, fmt.Errorf("wire: truncated state record header at offset %d", off)
	}
	v = graph.VertexID(binary.LittleEndian.Uint32(b[off:]))
	nN := binary.LittleEndian.Uint32(b[off+4:])
	nS := binary.LittleEndian.Uint32(b[off+8:])
	nT := binary.LittleEndian.Uint32(b[off+12:])
	nP := binary.LittleEndian.Uint32(b[off+16:])
	size := int64(stateRecordHeader) + 4*int64(nN) + 12*(int64(nS)+int64(nT)+int64(nP))
	if size > int64(len(b)-off) {
		return 0, 0, fmt.Errorf("wire: state record at offset %d claims %d bytes, %d remain", off, size, len(b)-off)
	}
	return v, off + int(size), nil
}

// ForEachStateRecord walks a state-batch payload; see ForEachPartialRecord.
func ForEachStateRecord(payload []byte, fn func(v graph.VertexID, rec []byte) error) error {
	if len(payload) < 4 {
		return fmt.Errorf("wire: batch payload too short (%d bytes)", len(payload))
	}
	n := binary.LittleEndian.Uint32(payload)
	off := 4
	for i := uint32(0); i < n; i++ {
		v, end, err := stateRecordAt(payload, off)
		if err != nil {
			return err
		}
		if err := fn(v, payload[off:end]); err != nil {
			return err
		}
		off = end
	}
	if off != len(payload) {
		return fmt.Errorf("wire: %d trailing bytes after %d batch records", len(payload)-off, n)
	}
	return nil
}

// DecodeStateRecord decodes one record into an exact-alloc VertexState.
func DecodeStateRecord(rec []byte) (VertexState, error) {
	r := &byteReader{b: rec}
	var vs VertexState
	vs.V = graph.VertexID(r.u32())
	nN, nS, nT, nP := r.u32(), r.u32(), r.u32(), r.u32()
	vs.Data.Nbrs = r.vertexIDs(r.count(nN, 4))
	vs.Data.Sims = r.vertexSims(r.count(nS, 12))
	vs.Data.TwoHop = r.pathCands(r.count(nT, 12))
	vs.Data.Pred = r.predictions(r.count(nP, 12))
	return vs, r.done()
}

// DecodeStateRecordInto decodes one record in place over d, reusing the slice
// capacity left by the previous refresh of the same replica. Callers that need
// an owned copy use DecodeStateRecord instead.
func DecodeStateRecordInto(rec []byte, d *core.VData) (graph.VertexID, error) {
	r := &byteReader{b: rec}
	v := graph.VertexID(r.u32())
	nN, nS, nT, nP := r.u32(), r.u32(), r.u32(), r.u32()
	d.Nbrs = r.vertexIDsInto(d.Nbrs, r.count(nN, 4))
	d.Sims = r.vertexSimsInto(d.Sims, r.count(nS, 12))
	d.TwoHop = r.pathCandsInto(d.TwoHop, r.count(nT, 12))
	d.Pred = r.predictionsInto(d.Pred, r.count(nP, 12))
	return v, r.done()
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

// decodePartialBatch decodes a whole batch payload (Conn.Recv's Msg path).
func decodePartialBatch(payload []byte) ([]core.DistPartial, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("wire: batch payload too short (%d bytes)", len(payload))
	}
	n := binary.LittleEndian.Uint32(payload)
	if int64(n)*partialRecordHeader > int64(len(payload)-4) {
		return nil, fmt.Errorf("wire: batch count %d exceeds payload", n)
	}
	var out []core.DistPartial
	if n > 0 {
		out = make([]core.DistPartial, 0, n)
	}
	err := ForEachPartialRecord(payload, func(_ graph.VertexID, rec []byte) error {
		dp, err := DecodePartialRecord(rec)
		if err != nil {
			return err
		}
		out = append(out, dp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// decodeStateBatch decodes a whole state batch payload.
func decodeStateBatch(payload []byte) ([]VertexState, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("wire: batch payload too short (%d bytes)", len(payload))
	}
	n := binary.LittleEndian.Uint32(payload)
	if int64(n)*stateRecordHeader > int64(len(payload)-4) {
		return nil, fmt.Errorf("wire: batch count %d exceeds payload", n)
	}
	var out []VertexState
	if n > 0 {
		out = make([]VertexState, 0, n)
	}
	err := ForEachStateRecord(payload, func(_ graph.VertexID, rec []byte) error {
		vs, err := DecodeStateRecord(rec)
		if err != nil {
			return err
		}
		out = append(out, vs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
		b = appendShip(b, m)
	case KindAttach:
		b = appendAttach(b, m)
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
		if err := decodeShip(payload, m); err != nil {
			return nil, err
		}
	case KindAttach:
		if err := decodeAttach(payload, m); err != nil {
			return nil, err
		}
	case KindReady, KindStepBegin, KindCollect:
		if len(payload) != 0 {
			return nil, fmt.Errorf("wire: %s frame with %d payload bytes", kind, len(payload))
		}
	case KindPartials, KindForeign:
		parts, err := decodePartialBatch(payload)
		if err != nil {
			return nil, err
		}
		m.Partials = parts
	case KindRefresh, KindMirrors:
		states, err := decodeStateBatch(payload)
		if err != nil {
			return nil, err
		}
		m.States = states
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
	b = appendU32(b, uint32(j.Paths))
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
	j.Paths = int(r.u32())
	j.Seed = r.u64()
}

// appendAttach encodes the attach handshake: version, job spec, fleet
// identity and the sparse scoped entries — never the partition itself.
func appendAttach(b []byte, m *Msg) []byte {
	b = appendU32(b, uint32(m.Version))
	b = appendJob(b, &m.Job)
	a := &m.Attach
	b = appendU64(b, a.Fingerprint)
	b = appendU32(b, uint32(a.Shard))
	b = appendU32(b, uint32(a.Shards))
	if a.Scoped {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendU32(b, uint32(len(a.Entries)))
	for i := range a.Entries {
		b = appendU32(b, uint32(a.Entries[i].V))
	}
	for i := range a.Entries {
		b = append(b, a.Entries[i].Mask)
	}
	for i := range a.Entries {
		b = append(b, a.Entries[i].Role)
	}
	return b
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
	n := r.count(r.u32(), 6) // 4 (ID) + 1 (mask) + 1 (role) bytes per entry
	if n > 0 {
		a.Entries = make([]ScopeEntry, n)
	}
	ids := r.bytes(n * 4)
	if ids != nil {
		for i := range a.Entries {
			a.Entries[i].V = graph.VertexID(binary.LittleEndian.Uint32(ids[4*i:]))
		}
	}
	for i, x := range r.bytes(n) {
		a.Entries[i].Mask = x
	}
	for i, x := range r.bytes(n) {
		a.Entries[i].Role = x
	}
	return r.done()
}

// appendShip encodes the shard a worker is to hold for the life of the
// connection: version, fleet identity, partition columns.
func appendShip(b []byte, m *Msg) []byte {
	s := &m.Shard
	b = appendU32(b, uint32(m.Version))
	b = appendU64(b, s.Fingerprint)
	b = appendU32(b, uint32(s.Shards))
	b = appendU32(b, uint32(s.Shard))
	b = appendU32(b, uint32(s.NumVertices))
	b = appendU32(b, uint32(len(s.Locals)))
	b = appendU32(b, uint32(len(s.EdgeSrc)))
	b = appendVertexIDs(b, s.Locals)
	b = appendInt32s(b, s.Deg)
	b = appendInt32s(b, s.EdgeSrc)
	b = appendInt32s(b, s.EdgeDst)
	b = appendBools(b, s.IsMaster)
	b = appendBools(b, s.HasRemote)
	return b
}

// decodeShip decodes a ship payload into m.Shard. It bounds every count by
// the bytes that arrived and nothing more: the shard's own invariants are
// graph.ShardFile.Validate's, run where the worker installs it.
func decodeShip(payload []byte, m *Msg) error {
	r := &byteReader{b: payload}
	s := &m.Shard
	m.Version = int(r.u32())
	s.Fingerprint = r.u64()
	s.Shards = int(r.u32())
	s.Shard = int(r.u32())
	s.NumVertices = int(r.u32())
	nLocals := r.u32()
	nEdges := r.u32()
	// Minimum bytes per local: 4 (ID) + 4 (deg) + 1 (master) + 1 (remote).
	nl := r.count(nLocals, 10)
	ne := r.count(nEdges, 8)
	s.Locals = r.vertexIDs(nl)
	s.Deg = r.int32s(nl)
	s.EdgeSrc = r.int32s(ne)
	s.EdgeDst = r.int32s(ne)
	s.IsMaster = r.bools(nl)
	s.HasRemote = r.bools(nl)
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
		vp.Preds = r.predictions(r.count(r.u32(), 12))
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

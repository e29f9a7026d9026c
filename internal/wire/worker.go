package wire

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"snaple/internal/core"
	"snaple/internal/graph"
)

// streamChunkBytes is the target payload size of one streamed batch chunk:
// big enough to amortise frame overhead, small enough that routing overlaps
// compute instead of trailing it.
const streamChunkBytes = 64 << 10

// ServeOptions configures a worker's listening side.
type ServeOptions struct {
	// Resident pins a shard for the worker's lifetime. It must be validated —
	// loaded through graph.MapShardFile / ReadShard, or built by the engine's
	// cut — because nothing below re-checks it. A resident worker needs no
	// KindShip before its first KindAttach (and refuses one): several
	// coordinators — e.g. multiple serve front-ends — attach to its one shard
	// and share one standing fleet. Every session on every connection reads
	// that shard and never writes it; each builds only its own per-job state,
	// sized by the job's vertices: the closure's entries on a scoped attach,
	// never the shard's length.
	Resident *graph.ShardFile
}

// Serve accepts coordinator connections on l until the listener is closed,
// serving each concurrently with the others: a connection's jobs run over
// the resident shard or the one shipped on that connection, so connections
// share nothing they write. Session errors are reported to logf (nil
// discards them) and do not stop the worker — the next coordinator gets a
// fresh session. Neither does running out of descriptors: Accept is retried
// after a pause that doubles from 5ms up to 1s and resets at the next
// accepted connection. Any other Accept error ends the loop.
func Serve(l net.Listener, logf func(format string, args ...any)) error {
	return ServeWith(l, logf, ServeOptions{})
}

// ServeWith is Serve with explicit options.
func ServeWith(l net.Listener, logf func(format string, args ...any), o ServeOptions) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var pause time.Duration
	for {
		c, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			if !errors.Is(err, syscall.EMFILE) && !errors.Is(err, syscall.ENFILE) {
				return fmt.Errorf("wire: accept: %w", err)
			}
			pause = min(max(2*pause, 5*time.Millisecond), time.Second)
			logf("accept: %v; retrying in %v", err, pause)
			time.Sleep(pause)
			continue
		}
		pause = 0
		logf("session from %s", c.RemoteAddr())
		go func() {
			if err := ServeConnWith(c, o); err != nil {
				logf("session from %s failed: %v", c.RemoteAddr(), err)
			} else {
				logf("session from %s done", c.RemoteAddr())
			}
		}()
	}
}

// ServeConn executes one coordinator session over rwc and closes it when the
// session ends. Protocol violations and compute errors are reported to the
// coordinator (KindError) and returned.
func ServeConn(rwc io.ReadWriteCloser) error {
	return ServeConnWith(rwc, ServeOptions{})
}

// ServeConnWith is ServeConn with explicit options.
//
// A resident worker serves hostile input: a coordinator may die mid-frame, a
// line may flip bits, a stray client may speak garbage. Every such
// failure must cost exactly one session — the error is reported to the peer
// as a typed KindError frame when the transport still works, the connection
// is closed, and the process stays up for the next coordinator. A panic in
// the session (a decode bug reached by malformed input) is converted to the
// same shape instead of taking the process down.
func ServeConnWith(rwc io.ReadWriteCloser, o ServeOptions) (err error) {
	conn, err := accept(rwc)
	if err != nil {
		conn.SendError(err)
		conn.Close()
		return err
	}
	defer conn.Close()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("wire: session panic: %v", r)
			conn.SendError(err)
		}
	}()
	// One connection carries a sequence of jobs: each KindAttach replaces the
	// current session, and collect leaves the connection open for the next job —
	// coordinators re-attach per query on their standing connections. shard is
	// what the attaches run over: the worker's pinned shard, or the one a
	// KindShip installed on this connection. The measured window (m0) opens at
	// the first post-Ready message of each job, not at Ready: the coordinator
	// barriers on every worker's Ready before the first KindStepBegin, so by
	// then all sessions (in-process ones included) have finished building and
	// the window holds only superstep and collect work — the same boundary the
	// coordinator's own wall-clock and traffic counters use.
	shard := o.Resident
	var s *session
	var bufs streams // the connection's streaming buffers, inherited by every session on it
	var m0 core.HeapCounters
	m0set := false
	for {
		m, err := conn.Recv()
		if err != nil {
			if err == io.EOF {
				return nil // coordinator done with us
			}
			// A corrupt or malformed frame (CRC failure, truncated header,
			// bad payload) ends this session, not the process. Tell the peer
			// why if the transport still works; echoing a KindError the peer
			// itself sent would be noise.
			if !IsRemoteError(err) {
				conn.SendError(err)
			}
			return err
		}
		if m.Kind == KindShip || m.Kind == KindAttach {
			switch {
			case m.Version != ProtocolVersion:
				err = fmt.Errorf("wire: protocol version %d, worker speaks %d", m.Version, ProtocolVersion)
			case m.Kind == KindShip:
				s = nil // whatever job ran over the previous shard is over
				shard, err = installShard(m, o.Resident)
			default:
				s, err = attachSession(conn, m, shard, &bufs)
			}
			if err != nil {
				conn.SendError(err)
				return err
			}
			if err := conn.Send(&Msg{Kind: KindReady}); err != nil {
				return err
			}
			m0set = false
			continue
		}
		if s == nil {
			err := fmt.Errorf("wire: expected attach, got %s", m.Kind)
			conn.SendError(err)
			return err
		}
		if !m0set {
			m0 = core.ReadHeapCounters()
			m0set = true
		}
		switch m.Kind {
		case KindStepBegin:
			if err := s.runStep(m.Step, m.Final); err != nil {
				conn.SendError(err)
				return err
			}
		case KindCollect:
			if err := conn.Send(&Msg{Kind: KindResult, Result: s.collect(m0)}); err != nil {
				return err
			}
		default:
			err := fmt.Errorf("wire: unexpected %s mid-session", m.Kind)
			conn.SendError(err)
			return err
		}
	}
}

// recRef is one buffered partial record and the slot it applies to; rec
// aliases one of the connection's foreign chunk buffers.
type recRef struct {
	slot int32
	rec  []byte
}

// streams is a connection's reusable streaming state: the outgoing chunk
// builder, the foreign chunk buffers and their record refs, and the collect
// round's result list. Coordinators re-attach per query on their standing
// connections, so each new session inherits these from the previous one
// instead of allocating them again.
type streams struct {
	sendBB       BatchBuilder // outgoing chunk under construction (sender goroutine)
	chunkBufs    [][]byte     // received foreign chunk payloads
	frefs        []recRef     // refs into chunkBufs, built by the receive loop
	collectPreds []VertexPreds
}

// session is a worker's state for one job: the shard it runs over, the
// per-job compute state, the master/mirror roles the coordinator elected, and
// the connection's streaming buffers. Every per-job column is indexed by the
// partition's slots: the shard's locals on a full job, the attach's entries
// on a scoped one.
type session struct {
	conn      *Conn
	shard     *graph.ShardFile // shared and immutable; see ServeOptions.Resident
	part      *core.DistPartition
	isMaster  []bool // per slot; a full job aliases the shard's baked roles, read-only
	hasRemote []bool
	busyNS    atomic.Int64 // gather/apply/refresh goroutines all contribute

	// per-step state, reused across supersteps.
	*streams
	applied  []bool // per slot: master applied inline during gather
	chunkN   int
	applyOne [1]core.DistPartial
	applySc  core.DistPartial // merged-partial scratch for apply
}

// installShard handles KindShip: the shipped shard becomes what this
// connection's attaches run over, until the connection ends. It was decoded
// through graph.ReadShard, the decoder a pinned shard loads through, so it
// passed the same one validation; a shard that broke an invariant never
// decoded into a Msg. A worker that pinned a packed shard at startup refuses
// — its operator chose what it serves, and a coordinator shipping to it
// forgot the manifest.
func installShard(m *Msg, resident *graph.ShardFile) (*graph.ShardFile, error) {
	if resident != nil {
		return nil, fmt.Errorf("wire: ship to a worker resident for packed shard %d of %d: open the fleet with its manifest",
			resident.Shard, resident.Shards)
	}
	return &m.Shard, nil
}

// attachSession opens a job session over the shard the worker holds. The
// shard was validated where it was pinned or installed and is its own index,
// so the attach does no per-shard work. The fingerprint must match the
// coordinator's exactly — a mismatched worker would compute over a different
// graph and silently corrupt the fold, so the handshake fails with a typed
// error instead. A scoped attach carries the coordinator's per-query roles
// for just the closure vertices, in ascending vertex order (out-of-order or
// repeated entries fail with core.ErrScopeOrder): the session holds one slot
// per entry and allocates and walks nothing of the shard's length. An
// unscoped attach runs one slot per local under the roles baked into the
// shard. Either way the session takes over the connection's streaming
// buffers from the previous one.
func attachSession(conn *Conn, m *Msg, shard *graph.ShardFile, bufs *streams) (*session, error) {
	if shard == nil {
		return nil, errors.New("wire: attach to a worker that holds no shard (none pinned at startup, none shipped on this connection)")
	}
	cfg, err := m.Job.Config()
	if err != nil {
		return nil, err
	}
	a := &m.Attach
	if a.Fingerprint != shard.Fingerprint {
		return nil, fmt.Errorf("wire: %s: coordinator has %016x, worker's shard has %016x",
			manifestMismatchText, a.Fingerprint, shard.Fingerprint)
	}
	if int(a.Shard) != shard.Shard || int(a.Shards) != shard.Shards {
		return nil, fmt.Errorf("wire: attach for shard %d of %d, worker holds shard %d of %d",
			a.Shard, a.Shards, shard.Shard, shard.Shards)
	}
	s := &session{conn: conn, shard: shard, streams: bufs}
	if a.Scoped {
		n := len(a.Entries)
		verts, scope := make([]graph.VertexID, n), make([]uint8, n)
		s.isMaster, s.hasRemote = make([]bool, n), make([]bool, n)
		for i, e := range a.Entries {
			verts[i], scope[i] = e.V, e.Mask
			s.isMaster[i] = e.Role&RoleMaster != 0
			s.hasRemote[i] = e.Role&RoleRemote != 0
		}
		s.part, err = core.NewScopedDistPartition(cfg, shard, verts, scope)
	} else {
		s.isMaster, s.hasRemote = shard.IsMaster, shard.HasRemote
		s.part, err = core.NewDistPartition(cfg, shard)
	}
	if err != nil {
		return nil, fmt.Errorf("wire: attach: %w", err)
	}
	s.applied = make([]bool, s.part.NumSlots())
	s.prewarm()
	return s, nil
}

// prewarm readies the streaming buffers' steady-state capacity during the
// attach handshake, before the coordinator starts timing the supersteps: the
// outgoing chunk builder, one foreign ref per replicated master (each remote
// mirror partition contributes at most one record per step), a pool of
// foreign chunk buffers, the connection's frame scratch, and the collect
// round's result storage (its size is bounded by K predictions per master).
// Buffers the connection already holds are reused: only the first attach on
// a connection pays for them.
func (s *session) prewarm() {
	s.sendBB.Reset()
	s.sendBB.Grow(streamChunkBytes + streamChunkBytes/4)
	nMasters, nR := 0, 0
	for i, m := range s.isMaster {
		if !m {
			continue
		}
		nMasters++
		if s.hasRemote[i] {
			nR++
		}
	}
	s.frefs = slices.Grow(s.frefs[:0], 2*nR)
	// The connection keeps this many foreign chunk buffers between jobs; a
	// heavier exchange grows the pool for its own job only.
	const prewarmChunks = 24
	if len(s.chunkBufs) > prewarmChunks {
		clear(s.chunkBufs[prewarmChunks:])
		s.chunkBufs = s.chunkBufs[:prewarmChunks]
	}
	for len(s.chunkBufs) < prewarmChunks {
		s.chunkBufs = append(s.chunkBufs, make([]byte, 0, streamChunkBytes+streamChunkBytes/4))
	}
	clear(s.collectPreds)
	s.collectPreds = slices.Grow(s.collectPreds[:0], nMasters)
	const predictionBytes = 12 // u32 vertex + f64 score
	resultBound := 64 + nMasters*(8+s.part.Config().K*predictionBytes)
	s.conn.encBuf = slices.Grow(s.conn.encBuf[:0], resultBound)
	chunk := streamChunkBytes + streamChunkBytes/4
	s.conn.rdBuf = slices.Grow(s.conn.rdBuf[:0], chunk)
	s.conn.rawBuf = slices.Grow(s.conn.rawBuf[:0], chunk)
	s.conn.zwBuf.Grow(chunk)
}

func (s *session) addBusy(d time.Duration) { s.busyNS.Add(int64(d)) }

// resetStep readies the reusable buffers for one superstep.
func (s *session) resetStep() {
	clear(s.applied)
	s.frefs = s.frefs[:0]
	s.chunkN = 0
}

// runStep executes one pipelined superstep: a sender goroutine streams gather
// partials up in chunks as the gather loop produces them, while this
// goroutine concurrently drains the foreign partials the coordinator routes
// back — communication overlaps compute on both sides of the connection. Masters without remote mirrors apply inline during the
// gather (no other partition can contribute to them); the rest apply after
// both streams end. The refresh round pipelines the same way.
func (s *session) runStep(step core.DistStep, final bool) error {
	s.resetStep()
	gerr := make(chan error, 1)
	go func() { gerr <- s.gatherAndSend(step) }()
	var ferr error
	for {
		f, err := s.conn.RecvRaw()
		if err != nil {
			ferr = err
			break
		}
		if f.Kind != KindForeign || f.Step != step {
			ferr = fmt.Errorf("wire: %s for %v during %v partials", f.Kind, f.Step, step)
			break
		}
		if err := s.bufferForeign(f.Payload); err != nil {
			ferr = err
			break
		}
		if f.Final {
			break
		}
	}
	// The gather sender always terminates: the coordinator drains partials
	// until our final chunk regardless of the routing outcome.
	if err := <-gerr; err != nil {
		return err
	}
	if ferr != nil {
		return ferr
	}

	t0 := time.Now()
	if err := s.applyMasters(step); err != nil {
		return err
	}
	s.addBusy(time.Since(t0))
	if final {
		// The last superstep's output is read back through collect; mirrors
		// never consume it, so the refresh round is skipped entirely.
		return nil
	}

	// Refresh round: stream master states up while applying the mirror
	// refreshes routed back — masters and mirrors are disjoint local
	// indices, so the two sides never touch the same replica.
	rerr := make(chan error, 1)
	go func() { rerr <- s.sendRefresh(step) }()
	ferr = nil
	for {
		f, err := s.conn.RecvRaw()
		if err != nil {
			ferr = err
			break
		}
		if f.Kind != KindMirrors || f.Step != step {
			ferr = fmt.Errorf("wire: %s for %v during %v refresh", f.Kind, f.Step, step)
			break
		}
		t0 := time.Now()
		err = ForEachRecord(KindMirrors, f.Payload, func(v graph.VertexID, rec []byte) error {
			slot, ok := s.part.Slot(v)
			if !ok {
				return fmt.Errorf("wire: refresh for vertex %d, which this job does not hold", v)
			}
			// Overwritten in place, reusing the capacity the previous refresh left.
			d := s.part.Data(slot)
			d.Nbrs, d.Sims = d.Nbrs[:0], d.Sims[:0]
			return decodeStateRecord(d, rec)
		})
		s.addBusy(time.Since(t0))
		if err != nil {
			ferr = err
			break
		}
		if f.Final {
			break
		}
	}
	if err := <-rerr; err != nil {
		return err
	}
	return ferr
}

// gatherAndSend runs the streaming gather, routing each partial as it is
// produced: masters without mirrors apply inline, everything else is chunked
// up to the coordinator. Replicated masters are not gathered here at all:
// applyMasters gathers their own partial when it folds the foreign ones.
// A final (possibly empty) chunk ends the stream; on a compute error the
// coordinator is told directly so the whole run unwinds instead of waiting
// on a final chunk that will never come.
func (s *session) gatherAndSend(step core.DistStep) error {
	t0 := time.Now()
	bb := &s.sendBB
	bb.Reset()
	replicated := func(slot int32) bool { return s.isMaster[slot] && s.hasRemote[slot] }
	err := s.part.GatherStream(step, replicated, func(slot int32, dp *core.DistPartial) error {
		if s.isMaster[slot] {
			// No other partition replicates this vertex, so no foreign
			// partial can arrive: fold it down right now, while the payload
			// is still hot scratch.
			s.applied[slot] = true
			s.applyOne[0] = *dp
			return s.part.Apply(step, slot, s.applyOne[:1])
		}
		bb.AppendPartial(dp)
		if bb.Len() >= streamChunkBytes {
			s.addBusy(time.Since(t0))
			err := s.conn.SendRaw(KindPartials, step, false, bb.Payload())
			bb.Reset()
			t0 = time.Now()
			return err
		}
		return nil
	})
	if err != nil {
		s.conn.SendError(err)
		return err
	}
	s.addBusy(time.Since(t0))
	return s.conn.SendRaw(KindPartials, step, true, bb.Payload())
}

// bufferForeign copies one routed foreign chunk into the session's reusable
// chunk buffers and indexes its records by slot.
func (s *session) bufferForeign(payload []byte) error {
	if len(payload) == 4 {
		return nil // empty terminator chunk
	}
	var buf []byte
	if s.chunkN < len(s.chunkBufs) {
		buf = append(s.chunkBufs[s.chunkN][:0], payload...)
		s.chunkBufs[s.chunkN] = buf
	} else {
		buf = append([]byte(nil), payload...)
		s.chunkBufs = append(s.chunkBufs, buf)
	}
	s.chunkN++
	return ForEachRecord(KindForeign, buf, func(v graph.VertexID, rec []byte) error {
		slot, ok := s.part.Slot(v)
		if !ok || !s.isMaster[slot] {
			return fmt.Errorf("wire: routed partial for vertex %d, which is not mastered here", v)
		}
		s.frefs = append(s.frefs, recRef{slot: slot, rec: rec})
		return nil
	})
}

// applyMasters folds each master's own and foreign partials and applies: the
// own partial is gathered on the spot (core.DistPartition.GatherVertex),
// the foreign ones decoded out of the buffered chunks. Every master applies
// every step — with no contribution anywhere the apply still runs and clears
// the step's output field, exactly like the serial engine's empty gather.
func (s *session) applyMasters(step core.DistStep) error {
	slices.SortFunc(s.frefs, func(a, b recRef) int { return cmp.Compare(a.slot, b.slot) })
	fi := 0
	var rg core.DistPartial
	for slot, master := range s.isMaster {
		si := int32(slot)
		start := fi
		for fi < len(s.frefs) && s.frefs[fi].slot == si {
			fi++
		}
		if !master || s.applied[slot] {
			continue // bufferForeign already rejected refs to non-masters
		}
		sc := &s.applySc
		sc.V = s.part.Vertex(si)
		sc.Nbrs = sc.Nbrs[:0]
		sc.Sims = sc.Sims[:0]
		sc.Cands = sc.Cands[:0]
		n := 0
		if s.part.GatherVertex(step, si, &rg) {
			sc.Nbrs = append(sc.Nbrs, rg.Nbrs...)
			sc.Sims = append(sc.Sims, rg.Sims...)
			sc.Cands = append(sc.Cands, rg.Cands...)
			n++
		}
		for _, r := range s.frefs[start:fi] {
			if err := decodePartialRecord(sc, r.rec); err != nil {
				return err
			}
			n++
		}
		var parts []core.DistPartial
		if n > 0 {
			s.applyOne[0] = *sc
			parts = s.applyOne[:1]
		}
		if err := s.part.Apply(step, si, parts); err != nil {
			return err
		}
	}
	return nil
}

// sendRefresh streams the refreshed state of every replicated master up to
// the coordinator in chunks, ending with a final-flagged chunk.
func (s *session) sendRefresh(step core.DistStep) error {
	t0 := time.Now()
	bb := &s.sendBB
	bb.Reset()
	for slot, master := range s.isMaster {
		if !master || !s.hasRemote[slot] {
			continue
		}
		si := int32(slot)
		bb.AppendState(s.part.Vertex(si), s.part.Data(si))
		if bb.Len() >= streamChunkBytes {
			s.addBusy(time.Since(t0))
			if err := s.conn.SendRaw(KindRefresh, step, false, bb.Payload()); err != nil {
				return err
			}
			bb.Reset()
			t0 = time.Now()
		}
	}
	s.addBusy(time.Since(t0))
	return s.conn.SendRaw(KindRefresh, step, true, bb.Payload())
}

// collect assembles the partition's master predictions and cost report.
func (s *session) collect(m0 core.HeapCounters) WorkerResult {
	res := WorkerResult{
		Part: s.shard.Shard,
		Stats: WorkerStats{
			Verts:       len(s.shard.Locals),
			Edges:       len(s.shard.EdgeSrc),
			BusySeconds: time.Duration(s.busyNS.Load()).Seconds(),
		},
	}
	for slot, master := range s.isMaster {
		si := int32(slot)
		if pred := s.part.Data(si).Pred; master && len(pred) > 0 {
			s.collectPreds = append(s.collectPreds, VertexPreds{V: s.part.Vertex(si), Preds: pred})
		}
	}
	res.Preds = s.collectPreds
	m1 := core.ReadHeapCounters()
	res.Stats.AllocBytes = int64(m1.AllocBytes - m0.AllocBytes)
	res.Stats.AllocObjects = int64(m1.AllocObjects - m0.AllocObjects)
	res.Stats.HeapBytes = int64(m1.LiveBytes)
	return res
}

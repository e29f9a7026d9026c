package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"sync/atomic"
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
	// KindShip before its first KindAttach (and refuses one) and serves
	// connections concurrently, so several coordinators — e.g. multiple serve
	// front-ends — can share one standing fleet. Every session on every
	// connection reads the one shard and never writes it; each builds only
	// its own per-job state.
	Resident *graph.ShardFile
}

// Serve accepts coordinator sessions on l until the listener is closed,
// running them sequentially: a worker owns one partition at a time, so
// serving jobs back to back is the natural unit of isolation. Session
// errors are reported to logf (nil discards them) and do not stop the
// worker — the next coordinator gets a fresh session.
func Serve(l net.Listener, logf func(format string, args ...any)) error {
	return ServeWith(l, logf, ServeOptions{})
}

// ServeWith is Serve with explicit options.
func ServeWith(l net.Listener, logf func(format string, args ...any), o ServeOptions) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for {
		c, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("wire: accept: %w", err)
		}
		logf("session from %s", c.RemoteAddr())
		if o.Resident != nil {
			// A resident worker is shared infrastructure: several coordinators
			// hold standing connections at once, so sessions run concurrently
			// over the one immutable shard.
			go func(c net.Conn) {
				if err := ServeConnWith(c, o); err != nil {
					logf("session from %s failed: %v", c.RemoteAddr(), err)
				} else {
					logf("session from %s done", c.RemoteAddr())
				}
			}(c)
			continue
		}
		if err := ServeConnWith(c, o); err != nil {
			logf("session from %s failed: %v", c.RemoteAddr(), err)
		} else {
			logf("session from %s done", c.RemoteAddr())
		}
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
// chaos test may flip bits, a stray client may speak garbage. Every such
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
				s, err = attachSession(conn, m, shard)
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

// recRef locates one buffered partial record: a local vertex index plus the
// record's extent inside a foreign chunk.
type recRef struct {
	li       int32
	chunk    int32
	off, end int32
}

// session is a worker's state for one job: the shard it runs over, the
// per-job compute state, the master/mirror roles the coordinator elected, and
// the reusable streaming buffers of the pipelined superstep.
type session struct {
	conn      *Conn
	shard     *graph.ShardFile // shared and immutable; see ServeOptions.Resident
	part      *core.DistPartition
	isMaster  []bool // read-only: an unscoped job aliases the shard's baked roles
	hasRemote []bool
	busyNS    atomic.Int64 // gather/apply/refresh goroutines all contribute

	// per-step state, reused across supersteps.
	sendBB    BatchBuilder // outgoing chunk under construction (sender goroutine)
	applied   []bool       // per local: master applied inline during gather
	chunkBufs [][]byte     // received foreign chunk payloads
	chunkN    int
	frefs     []recRef // refs into chunkBufs, built by the receive loop
	applyOne  [1]core.DistPartial
	applySc   core.DistPartial // merged-partial scratch for apply

	collectPreds []VertexPreds // result storage, presized at attach
}

// installShard handles KindShip: the shipped shard, once validated, becomes
// what this connection's attaches run over, until the connection ends. This
// is the one check a shard that arrived as bytes from the network ever gets,
// and the same one a pinned shard got at load. A worker that pinned a packed
// shard at startup refuses — its operator chose what it serves, and a
// coordinator shipping to it forgot the manifest.
func installShard(m *Msg, resident *graph.ShardFile) (*graph.ShardFile, error) {
	if resident != nil {
		return nil, fmt.Errorf("wire: ship to a worker resident for packed shard %d of %d: open the fleet with its manifest",
			resident.Shard, resident.Shards)
	}
	if err := m.Shard.Validate(); err != nil {
		return nil, fmt.Errorf("wire: ship refused: %w", err)
	}
	return &m.Shard, nil
}

// attachSession opens a job session over the shard the worker holds, and does
// no per-shard work beyond allocating the job's own O(locals) columns: the
// shard was validated where it was pinned or installed and is its own index.
// The fingerprint must match the coordinator's exactly — a mismatched worker
// would compute over a different graph and silently corrupt the fold, so the
// handshake fails with a typed error instead. Scoped attaches carry the
// coordinator's per-query roles for just the closure vertices: everything
// outside the entries keeps a zero scope mask, which the partition's scope
// machinery skips entirely. Unscoped attaches run under the roles baked into
// the shard.
func attachSession(conn *Conn, m *Msg, shard *graph.ShardFile) (*session, error) {
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
	part, err := core.NewDistPartition(cfg, shard)
	if err != nil {
		return nil, err
	}
	s := &session{conn: conn, shard: shard, part: part, isMaster: shard.IsMaster, hasRemote: shard.HasRemote}
	if a.Scoped {
		n := len(shard.Locals)
		scope := make([]uint8, n)
		s.isMaster, s.hasRemote = make([]bool, n), make([]bool, n)
		for _, e := range a.Entries {
			li, ok := part.LocalIndex(e.V)
			if !ok {
				return nil, fmt.Errorf("wire: attach scope entry for vertex %d, which is not local to shard %d", e.V, shard.Shard)
			}
			scope[li] = e.Mask
			s.isMaster[li] = e.Role&RoleMaster != 0
			s.hasRemote[li] = e.Role&RoleRemote != 0
		}
		if err := part.SetScope(scope); err != nil {
			return nil, err
		}
	}
	s.prewarm()
	return s, nil
}

// prewarm pays for the streaming buffers' steady-state capacity during the
// attach handshake, before the coordinator starts timing the supersteps:
// the outgoing chunk builder, one foreign ref per replicated master (each
// remote mirror partition contributes at most one record per step), a pool
// of foreign chunk buffers, the connection's frame scratch, and the collect
// round's result storage (its size is bounded by K predictions per master).
// The pool still grows lazily past the prewarmed count on partitions with
// heavier exchanges.
func (s *session) prewarm() {
	s.sendBB.Reset()
	s.sendBB.Grow(streamChunkBytes + streamChunkBytes/4)
	nMasters, nR := 0, 0
	for li, m := range s.isMaster {
		if !m {
			continue
		}
		nMasters++
		if s.hasRemote[li] {
			nR++
		}
	}
	s.frefs = make([]recRef, 0, 2*nR)
	const prewarmChunks = 24
	s.chunkBufs = make([][]byte, 0, prewarmChunks)
	for range prewarmChunks {
		s.chunkBufs = append(s.chunkBufs, make([]byte, 0, streamChunkBytes+streamChunkBytes/4))
	}
	s.collectPreds = make([]VertexPreds, 0, nMasters)
	const predictionBytes = 12 // u32 vertex + f64 score
	resultBound := 64 + nMasters*(8+s.part.Config().K*predictionBytes)
	s.conn.encBuf = slices.Grow(s.conn.encBuf, resultBound)
	chunk := streamChunkBytes + streamChunkBytes/4
	s.conn.rdBuf = slices.Grow(s.conn.rdBuf, chunk)
	s.conn.rawBuf = slices.Grow(s.conn.rawBuf, chunk)
	s.conn.zwBuf.Grow(chunk)
}

func (s *session) addBusy(d time.Duration) { s.busyNS.Add(int64(d)) }

// resetStep readies the reusable buffers for one superstep.
func (s *session) resetStep() {
	if n := len(s.shard.Locals); len(s.applied) != n {
		s.applied = make([]bool, n)
	}
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
		err = ForEachStateRecord(f.Payload, func(v graph.VertexID, rec []byte) error {
			li, ok := s.part.LocalIndex(v)
			if !ok {
				return fmt.Errorf("wire: refresh for vertex %d, which is not local", v)
			}
			// Decoded in place, reusing the capacity the previous refresh left.
			got, err := DecodeStateRecordInto(rec, s.part.Data(li))
			if err != nil {
				return err
			}
			if got != v {
				return fmt.Errorf("wire: refresh record for %d keyed as %d", got, v)
			}
			return nil
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
// produced: masters without mirrors apply inline, replicated masters drop
// theirs (applyMasters re-gathers it), everything else is chunked up to the
// coordinator.
// A final (possibly empty) chunk ends the stream; on a compute error the
// coordinator is told directly so the whole run unwinds instead of waiting
// on a final chunk that will never come.
func (s *session) gatherAndSend(step core.DistStep) error {
	t0 := time.Now()
	bb := &s.sendBB
	bb.Reset()
	err := s.part.GatherStream(step, func(li int32, dp *core.DistPartial) error {
		if s.isMaster[li] {
			if !s.hasRemote[li] {
				// No other partition replicates this vertex, so no foreign
				// partial can arrive: fold it down right now, while the
				// payload is still hot scratch.
				s.applied[li] = true
				s.applyOne[0] = *dp
				return s.part.Apply(step, li, s.applyOne[:1])
			}
			// applyMasters recomputes this partial on demand — no copy, no
			// growing record buffer across the exchange.
			return nil
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
// chunk buffers and indexes its records by local vertex.
func (s *session) bufferForeign(payload []byte) error {
	if len(payload) < 4 {
		return fmt.Errorf("wire: foreign chunk of %d bytes", len(payload))
	}
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
	ci := int32(s.chunkN)
	s.chunkN++
	n := int(uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24)
	off := 4
	for i := 0; i < n; i++ {
		v, end, err := partialRecordAt(buf, off)
		if err != nil {
			return err
		}
		li, ok := s.part.LocalIndex(v)
		if !ok || !s.isMaster[li] {
			return fmt.Errorf("wire: routed partial for vertex %d, which is not mastered here", v)
		}
		s.frefs = append(s.frefs, recRef{li: li, chunk: ci, off: int32(off), end: int32(end)})
		off = end
	}
	if off != len(buf) {
		return fmt.Errorf("wire: %d trailing bytes after foreign chunk records", len(buf)-off)
	}
	return nil
}

// applyMasters folds each master's own and foreign partials and applies: the
// own partial is re-gathered on the spot (core.DistPartition.GatherVertex),
// the foreign ones decoded out of the buffered chunks. Every master applies
// every step — with no contribution anywhere the apply still runs and clears
// the step's output field, exactly like the serial engine's empty gather.
func (s *session) applyMasters(step core.DistStep) error {
	sort.Slice(s.frefs, func(i, j int) bool { return s.frefs[i].li < s.frefs[j].li })
	fi := 0
	var rg core.DistPartial
	for i, v := range s.shard.Locals {
		li := int32(i)
		start := fi
		for fi < len(s.frefs) && s.frefs[fi].li == li {
			fi++
		}
		if !s.isMaster[li] {
			continue // bufferForeign already rejected refs to non-masters
		}
		if s.applied[li] {
			continue
		}
		sc := &s.applySc
		sc.V = v
		sc.Nbrs = sc.Nbrs[:0]
		sc.Sims = sc.Sims[:0]
		sc.Cands = sc.Cands[:0]
		n := 0
		if s.part.GatherVertex(step, li, &rg) {
			sc.Nbrs = append(sc.Nbrs, rg.Nbrs...)
			sc.Sims = append(sc.Sims, rg.Sims...)
			sc.Cands = append(sc.Cands, rg.Cands...)
			n++
		}
		for _, r := range s.frefs[start:fi] {
			if err := decodePartialRecordInto(s.chunkBufs[r.chunk][r.off:r.end], sc); err != nil {
				return err
			}
			n++
		}
		var parts []core.DistPartial
		if n > 0 {
			s.applyOne[0] = *sc
			parts = s.applyOne[:1]
		}
		if err := s.part.Apply(step, li, parts); err != nil {
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
	for li, v := range s.shard.Locals {
		if !s.isMaster[li] || !s.hasRemote[li] {
			continue
		}
		bb.AppendState(v, s.part.Data(int32(li)))
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
	for li, v := range s.shard.Locals {
		if !s.isMaster[li] {
			continue
		}
		if pred := s.part.Data(int32(li)).Pred; len(pred) > 0 {
			s.collectPreds = append(s.collectPreds, VertexPreds{V: v, Preds: pred})
		}
	}
	res.Preds = s.collectPreds
	m1 := core.ReadHeapCounters()
	res.Stats.AllocBytes = int64(m1.AllocBytes - m0.AllocBytes)
	res.Stats.AllocObjects = int64(m1.AllocObjects - m0.AllocObjects)
	res.Stats.HeapBytes = int64(m1.LiveBytes)
	return res
}

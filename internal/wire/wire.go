// Package wire is the network substrate of the dist execution backend: the
// framed binary protocol that the coordinator (engine.Fleet) speaks with
// snaple-worker processes over TCP, plus the worker-side session loop
// (worker.go) shared by cmd/snaple-worker and in-process test workers.
//
// One TCP connection carries one prediction job at a time. The handshakes
// and the collect exchange are strictly half-duplex; inside a superstep the
// protocol pipelines — workers stream gather partials up in fixed-size chunks
// while concurrently draining the foreign partials the coordinator routes
// back, and likewise for the refresh/mirror round:
//
//	coordinator                       worker
//	----------- hello ------------->          version check + feature negotiation
//	<---------- hello --------------          (granted features echoed back)
//	once per connection, only to a worker that pinned no packed shard:
//	----------- ship -------------->          install this shard: its file bytes (graph.WriteShard)
//	<---------- ready --------------          (or error: a shard graph.ReadShard refuses)
//	then, per job:
//	----------- attach ------------>          job spec + fingerprint (+ scoped vertex/mask/role columns)
//	<---------- ready --------------          (or error: bad config, fingerprint mismatch)
//	then, per superstep:
//	----------- step-begin -------->
//	<>--------- partials/foreign --<>         chunked both ways concurrently;
//	                                          a final-flagged chunk ends each
//	                                          direction
//	<>--------- refresh/mirrors ---<>         idem: Γ̂ and relays only (skipped
//	                                          on the final superstep, the only
//	                                          one that writes predictions)
//	finally:
//	----------- collect ----------->
//	<---------- result -------------          master predictions + stats
//
// Frames are length-prefixed, CRC-32C-checksummed flat sections (see
// frame.go for the exact layout); each batch record decodes through one
// append-form decoder, into fresh slices for Recv and reused ones for a
// worker, and the coordinator routes individual records without decoding
// them at all. Optional per-frame flate compression is negotiated
// through the hello feature bits.
//
// There is one protocol version. Worker and coordinator ship from one tree,
// so a peer that opens with anything but a current hello — an older build, a
// stray client — is refused with ErrProtocolMismatch on whichever side notices.
//
// Conn counts bytes and messages in both directions: the dist backend's
// Stats.CrossBytes/CrossMsgs are measured on the wire (everything after the
// attach handshake), not simulated like the sim backend's.
package wire

import (
	"bufio"
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"snaple/internal/core"
	"snaple/internal/graph"
)

// ProtocolVersion is the one protocol version this build speaks. Hello, ship
// and attach all carry it, and a worker rejects any other value — version
// skew must fail loudly, not silently change semantics. It counts payload
// layouts, not frame layouts: the frame magic is still "SWF3", so a v3, v4 or
// v5 peer is recognised as a frame speaker and refused by its hello's version.
// v6 ships the shard file format v2, whose roles are one byte section.
const ProtocolVersion = 6

// ErrProtocolMismatch marks a handshake with a peer that does not speak
// ProtocolVersion: its opening bytes were not a frame at all (builds before
// v3 spoke a gob envelope), or its hello named another version.
var ErrProtocolMismatch = errors.New("wire: protocol mismatch: this build speaks only protocol v6 and the peer does not; rebuild worker and coordinator from the same tree")

// Kind discriminates the Msg envelope and the frame header.
type Kind uint8

const (
	// KindShip installs a shard on a worker that pinned none at startup, for
	// the life of the connection: the fleet identity plus the partition
	// payload, no job (coordinator → worker). Every job then opens with
	// KindAttach, exactly as against a resident worker.
	KindShip Kind = iota + 1
	// KindReady acknowledges a ship or an attach (worker → coordinator).
	KindReady
	// KindStepBegin starts a superstep (coordinator → worker).
	KindStepBegin
	// KindPartials carries gather partials for vertices mastered elsewhere
	// (worker → coordinator). A superstep sends any number of chunks, the
	// last one final-flagged.
	KindPartials
	// KindForeign carries partials routed from other partitions for vertices
	// mastered here (coordinator → worker). Chunked like KindPartials.
	KindForeign
	// KindRefresh carries refreshed master state for vertices with remote
	// mirrors (worker → coordinator). Chunked.
	KindRefresh
	// KindMirrors carries refreshed state routed to this partition's mirror
	// copies (coordinator → worker). Chunked.
	KindMirrors
	// KindCollect requests the final results (coordinator → worker).
	KindCollect
	// KindResult carries the partition's master predictions and run stats
	// (worker → coordinator).
	KindResult
	// KindError aborts the session; Err holds the cause (either direction).
	KindError
	// KindHello opens a connection in both directions: the dialer's
	// requested version and feature bits, answered with the granted ones.
	KindHello
	// KindAttach is the one job opener: it starts a job over the shard the
	// worker holds — pinned at startup from a packed shard file, or installed
	// on this connection by a KindShip. It carries the job spec plus the fleet
	// fingerprint and (for scoped runs) the closure's vertex, scope-mask and
	// role columns, never partition columns.
	KindAttach
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	names := map[Kind]string{
		KindShip: "ship", KindReady: "ready", KindStepBegin: "step-begin",
		KindPartials: "partials", KindForeign: "foreign", KindRefresh: "refresh",
		KindMirrors: "mirrors", KindCollect: "collect", KindResult: "result",
		KindError: "error", KindHello: "hello", KindAttach: "attach",
	}
	if n, ok := names[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// JobSpec is a core.Config in shippable form: the Table 3 score is carried
// by (name, alpha) and reassembled remotely, because function values cannot
// cross the wire.
type JobSpec struct {
	Score    string
	Alpha    float64
	K        int
	KLocal   int
	ThrGamma int
	Policy   core.SelectionPolicy
	Seed     uint64
}

// JobFromConfig converts a validated Config into its wire form. It fails
// when the score is not a named Table 3 configuration (a hand-assembled
// ScoreSpec with custom functions cannot be shipped).
func JobFromConfig(cfg core.Config) (JobSpec, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return JobSpec{}, err
	}
	// Round-trip the score now so a custom spec fails on the coordinator
	// with a clear error instead of on every worker.
	if _, err := core.ScoreByName(cfg.Score.Name, cfg.Score.Alpha); err != nil {
		return JobSpec{}, fmt.Errorf("wire: score %q is not shippable: %w", cfg.Score.Name, err)
	}
	return JobSpec{
		Score: cfg.Score.Name, Alpha: cfg.Score.Alpha,
		K: cfg.K, KLocal: cfg.KLocal, ThrGamma: cfg.ThrGamma,
		Policy: cfg.Policy, Seed: cfg.Seed,
	}, nil
}

// Config reassembles the core.Config a JobSpec describes.
func (j JobSpec) Config() (core.Config, error) {
	spec, err := core.ScoreByName(j.Score, j.Alpha)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Score: spec, K: j.K, KLocal: j.KLocal, ThrGamma: j.ThrGamma,
		Policy: j.Policy, Seed: j.Seed,
	}
	return cfg.Normalized()
}

// AttachSpec is KindAttach's payload: everything a worker needs to start a
// job against the partition it holds. The fingerprint stands in for the
// partition bytes — if it matches, coordinator and worker provably hold the
// same (graph, cut), so nothing else needs to cross the wire.
type AttachSpec struct {
	// Fingerprint is the fleet fingerprint the coordinator derived from its
	// graph and cut parameters; it must equal the worker's pinned one.
	Fingerprint uint64
	// Shard/Shards name the partition the coordinator believes this worker
	// pinned; a mismatch means the fleet is mis-wired.
	Shard, Shards int32
	// Scoped selects a query-scoped job: the columns below override the
	// shard's baked full-run roles. When false the baked roles apply and the
	// columns are empty.
	Scoped bool
	// Verts, Masks and Roles are a scoped job's slots, one per closure
	// vertex local to the shard, in strictly ascending vertex order: the
	// vertex, its frontier scope mask (core.Scope* bits) and its routing
	// role for this query (graph.RoleMaster/RoleRemote bits). The coordinator
	// derives them from the global closure, so workers never need the source
	// list, let alone the graph. Locals outside the columns are outside the
	// closure: mask zero, no role. The three are the frame's own sections and
	// land unchanged in the worker's session.
	Verts []graph.VertexID
	Masks []uint8
	Roles []uint8
}

// manifestMismatchText is the wire marker for a fingerprint rejection: it
// crosses the boundary inside a KindError string, and IsManifestMismatch
// recovers the type on the coordinator side.
const manifestMismatchText = "manifest fingerprint mismatch"

// ErrManifestMismatch marks an attach rejected because the worker's pinned
// shard was packed from a different (graph, cut) than the coordinator's.
var ErrManifestMismatch = errors.New("wire: " + manifestMismatchText)

// IsManifestMismatch reports whether err is a fingerprint rejection — local,
// or remote (carried through a KindError frame).
func IsManifestMismatch(err error) bool {
	if errors.Is(err, ErrManifestMismatch) {
		return true
	}
	return err != nil && IsRemoteError(err) && strings.Contains(err.Error(), manifestMismatchText)
}

// VertexState pairs a vertex with its full replica state, for master→mirror
// refreshes.
type VertexState struct {
	V    graph.VertexID
	Data core.VData
}

// VertexPreds pairs a vertex with its final predictions — the collect-phase
// payload, slimmer than a full VertexState.
type VertexPreds struct {
	V     graph.VertexID
	Preds []core.Prediction
}

// WorkerStats is the per-worker cost report returned with the results.
type WorkerStats struct {
	// Verts/Edges are the partition's local table and edge counts.
	Verts, Edges int
	// BusySeconds is the worker's compute time (gather + apply + refresh),
	// excluding time blocked on the wire.
	BusySeconds float64
	// AllocBytes/AllocObjects are the worker process's heap deltas across the
	// supersteps (core.ReadHeapCounters).
	AllocBytes, AllocObjects int64
	// HeapBytes is the worker's live heap after the final superstep — the
	// dist analog of the sim backend's per-node memory footprint.
	HeapBytes int64
}

// WorkerResult is the collect-phase payload.
type WorkerResult struct {
	Part  int
	Preds []VertexPreds
	Stats WorkerStats
}

// Msg is the single envelope every wire exchange uses. Kind selects which
// payload fields are meaningful; the rest stay zero and cost nothing on the
// wire (a frame encodes only its kind's payload).
type Msg struct {
	Kind     Kind
	Version  int             // KindShip, KindAttach, KindHello
	Features uint32          // KindHello: requested/granted feature bits
	Job      JobSpec         // KindAttach
	Shard    graph.ShardFile // KindShip: the shard to hold, columns and fleet identity
	Attach   AttachSpec      // KindAttach
	Step     core.DistStep
	// Final marks the last superstep on KindStepBegin (no refresh/mirror
	// round follows) and the last chunk of a streaming phase on
	// KindPartials/KindForeign/KindRefresh/KindMirrors.
	Final    bool
	Partials []core.DistPartial // KindPartials, KindForeign
	States   []VertexState      // KindRefresh, KindMirrors
	Result   WorkerResult       // KindResult
	Err      string             // KindError
}

// RawFrame is one received frame with its payload left encoded — the
// coordinator's routing input. Payload is a view into the connection's
// scratch, valid only until the next Recv or RecvRaw.
type RawFrame struct {
	Kind    Kind
	Step    core.DistStep
	Final   bool
	Payload []byte
}

// countingRW wraps a transport and counts traffic in both directions. The
// counters are atomics so stats can be read while a session is in flight.
type countingRW struct {
	rw      io.ReadWriter
	in, out atomic.Int64
	msgIn   atomic.Int64
	msgOut  atomic.Int64
}

func (c *countingRW) Read(p []byte) (int, error) {
	n, err := c.rw.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingRW) Write(p []byte) (int, error) {
	n, err := c.rw.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// Counters is a point-in-time traffic snapshot of one connection.
type Counters struct {
	BytesIn, BytesOut int64
	MsgsIn, MsgsOut   int64
}

// Sub returns the delta c − base.
func (c Counters) Sub(base Counters) Counters {
	return Counters{
		BytesIn: c.BytesIn - base.BytesIn, BytesOut: c.BytesOut - base.BytesOut,
		MsgsIn: c.MsgsIn - base.MsgsIn, MsgsOut: c.MsgsOut - base.MsgsOut,
	}
}

// errRemote marks an error frame/message received from the peer, so dialers
// can tell a deliberate rejection from line noise.
var errRemote = errors.New("remote error")

// IsRemoteError reports whether err stems from a KindError frame the peer
// sent — a deliberate, well-formed rejection (bad config, version skew,
// compute failure) rather than transport noise. Coordinators use the
// distinction to classify failures: a remote rejection of a ship or attach is
// deterministic and would repeat on every replica, while line noise just
// means the worker is dead.
func IsRemoteError(err error) bool { return errors.Is(err, errRemote) }

// Conn is a frame stream over a transport, with traffic counting. It is not
// safe for concurrent Sends or concurrent Recvs, but one sender and one
// receiver may run concurrently — the supersteps pipeline exactly that way.
type Conn struct {
	crw    *countingRW
	br     *bufio.Reader
	bw     *bufio.Writer
	closer io.Closer

	compress bool

	// scratch, reused across frames.
	whdr   [frameHeaderSize]byte
	rhdr   [frameHeaderSize]byte
	rdBuf  []byte // wire payload
	rawBuf []byte // decompressed payload
	encBuf []byte // outgoing payload under construction
	zwBuf  bytes.Buffer
	zrSrc  bytes.Reader
	fw     *flate.Writer
	fr     io.ReadCloser
}

// NewConn wraps a transport (net.Conn in production, net.Pipe in tests) in
// the frame protocol, without a hello exchange (Dial/Serve run one; tests
// pair NewConn with NewConn).
func NewConn(rwc io.ReadWriteCloser) *Conn {
	crw := &countingRW{rw: rwc}
	return &Conn{
		crw:    crw,
		br:     bufio.NewReader(crw),
		bw:     bufio.NewWriter(crw),
		closer: rwc,
	}
}

// SetCompression toggles per-frame flate compression. Production connections
// negotiate it via the hello feature bits; this is for endpoints created with
// NewConn directly (tests, benches).
func (c *Conn) SetCompression(on bool) {
	c.compress = on
	if c.compress {
		c.preallocCompression()
	}
}

// DialOptions configures DialWith.
type DialOptions struct {
	// Compress requests per-frame flate compression (subject to the worker
	// granting it).
	Compress bool
	// HelloTimeout bounds the version handshake (default 2 minutes — a
	// wedged worker, or a listener that is no worker, may answer nothing at
	// all, and that must surface as an error, not a hang).
	HelloTimeout time.Duration
}

// Dial connects to a worker address and runs the hello handshake.
func Dial(addr string) (*Conn, error) {
	return DialWith(addr, DialOptions{})
}

// DialWith is Dial with explicit options. A peer that answers the hello with
// anything but a current hello fails with ErrProtocolMismatch; one that
// answers nothing (a wedged worker, or a stranger that stays silent) fails
// with a timeout after HelloTimeout.
func DialWith(addr string, o DialOptions) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	c := NewConn(nc)
	if err := c.hello(o); err != nil {
		c.Close()
		return nil, fmt.Errorf("wire: hello to %s: %w", addr, err)
	}
	return c, nil
}

// hello runs the dialer's half of the handshake.
func (c *Conn) hello(o DialOptions) error {
	t := o.HelloTimeout
	if t == 0 {
		t = 2 * time.Minute
	}
	_ = c.SetDeadline(time.Now().Add(t))
	defer func() { _ = c.SetDeadline(time.Time{}) }()
	var feat uint32
	if o.Compress {
		feat |= featCompress
	}
	if err := c.Send(&Msg{Kind: KindHello, Version: ProtocolVersion, Features: feat}); err != nil {
		return err
	}
	m, err := c.recvHello()
	if err != nil {
		return err
	}
	if o.Compress && m.Features&featCompress != 0 {
		c.SetCompression(true)
	}
	return nil
}

// accept runs the listener's half of the handshake: read the dialer's hello
// and answer it with the granted features. The conn is returned even on
// error, so the caller can report the failure to the peer before closing.
func accept(rwc io.ReadWriteCloser) (*Conn, error) {
	c := NewConn(rwc)
	m, err := c.recvHello()
	if err != nil {
		return c, err
	}
	grant := m.Features & featCompress
	if err := c.Send(&Msg{Kind: KindHello, Version: ProtocolVersion, Features: grant}); err != nil {
		return c, err
	}
	if grant != 0 {
		c.SetCompression(true)
	}
	return c, nil
}

// recvHello reads the peer's hello, on either side of the handshake. The
// magic is peeked first so a peer that is not speaking frames at all — its
// first four bytes settle that — is named as such instead of surfacing as a
// frame decode error.
func (c *Conn) recvHello() (*Msg, error) {
	magic, err := c.br.Peek(len(frameMagic))
	if err != nil {
		return nil, fmt.Errorf("wire: handshake: %w", err)
	}
	if string(magic) != frameMagic {
		return nil, fmt.Errorf("%w (peer opened with %q, not a frame)", ErrProtocolMismatch, magic)
	}
	m, err := c.Expect(KindHello)
	if err != nil {
		return nil, err
	}
	if m.Version != ProtocolVersion {
		return nil, fmt.Errorf("%w (peer hello names v%d)", ErrProtocolMismatch, m.Version)
	}
	return m, nil
}

// Send encodes one message.
func (c *Conn) Send(m *Msg) error {
	payload, flags, err := appendMsgPayload(c.encBuf[:0], m)
	if err != nil {
		return err
	}
	c.encBuf = payload[:0]
	return c.writeFrame(m.Kind, flags, m.Step, payload)
}

// SendRaw sends a pre-encoded batch payload as one frame, final-flagged
// when it ends the phase — the zero-copy path workers and the coordinator
// stream chunks through.
func (c *Conn) SendRaw(kind Kind, step core.DistStep, final bool, payload []byte) error {
	var flags byte
	if final {
		flags |= flagFinal
	}
	return c.writeFrame(kind, flags, step, payload)
}

// Recv decodes the next message into a fresh envelope, allocating exactly
// the message's payload.
func (c *Conn) Recv() (*Msg, error) {
	kind, flags, step, payload, err := c.readFrame()
	if err != nil {
		if err == io.EOF {
			return nil, err
		}
		return nil, fmt.Errorf("wire: recv: %w", err)
	}
	m, err := decodeMsgPayload(kind, flags, step, payload)
	if err != nil {
		return nil, fmt.Errorf("wire: recv %s: %w", kind, err)
	}
	if m.Kind == KindError {
		return m, fmt.Errorf("wire: %w: %s", errRemote, m.Err)
	}
	return m, nil
}

// RecvRaw reads the next frame without decoding its payload. An error
// frame surfaces as an error, like Recv's.
func (c *Conn) RecvRaw() (RawFrame, error) {
	kind, flags, step, payload, err := c.readFrame()
	if err != nil {
		if err == io.EOF {
			return RawFrame{}, err
		}
		return RawFrame{}, fmt.Errorf("wire: recv: %w", err)
	}
	if kind == KindError {
		return RawFrame{}, fmt.Errorf("wire: %w: %s", errRemote, string(payload))
	}
	return RawFrame{Kind: kind, Step: step, Final: flags&flagFinal != 0, Payload: payload}, nil
}

// Expect receives the next message and checks its kind.
func (c *Conn) Expect(kind Kind) (*Msg, error) {
	m, err := c.Recv()
	if err != nil {
		return m, err
	}
	if m.Kind != kind {
		return m, fmt.Errorf("wire: expected %s, got %s", kind, m.Kind)
	}
	return m, nil
}

// SetDeadline bounds every pending and future Send/Recv when the transport
// supports deadlines (net.Conn and net.Pipe do; a transport that does not is
// silently unbounded). The zero time clears the deadline. Coordinators use
// it to keep a handshake against a peer that never reads the hello or
// attach — a wedged worker, a silent stranger — from hanging forever.
func (c *Conn) SetDeadline(t time.Time) error {
	if d, ok := c.closer.(interface{ SetDeadline(time.Time) error }); ok {
		return d.SetDeadline(t)
	}
	return nil
}

// SendError best-effort reports an error to the peer before the session
// unwinds.
func (c *Conn) SendError(err error) {
	_ = c.Send(&Msg{Kind: KindError, Err: err.Error()})
}

// Counters snapshots the connection's traffic so far.
func (c *Conn) Counters() Counters {
	return Counters{
		BytesIn: c.crw.in.Load(), BytesOut: c.crw.out.Load(),
		MsgsIn: c.crw.msgIn.Load(), MsgsOut: c.crw.msgOut.Load(),
	}
}

// Close closes the underlying transport.
func (c *Conn) Close() error { return c.closer.Close() }

package wire

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"snaple/internal/core"
	"snaple/internal/graph"
)

// pipePair returns two ends of an in-memory message stream.
func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

// zipPair is pipePair with per-frame compression enabled on both ends.
func zipPair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	ca, cb := pipePair(t)
	ca.SetCompression(true)
	cb.SetCompression(true)
	return ca, cb
}

// protoPairs lists the encoder/decoder pairings every lossless-codec test
// runs through: the frame protocol plain and compressed.
var protoPairs = []struct {
	name string
	pair func(t *testing.T) (*Conn, *Conn)
}{
	{"v3", pipePair},
	{"v3-flate", zipPair},
}

// legacyGobOpening is what a pre-v3 peer sends first: the opening message of
// a gob stream (the type descriptor of the v2 Msg envelope), captured from
// the last build that spoke it.
var legacyGobOpening = mustHex("ff927f030101034d736701ff8000010c01044b696e64010600010756657273696f6e" +
	"0104000108466561747572657301060001034a6f6201ff820001045061727401ff8400010641747461636801ff8c" +
	"00010453746570010400010546696e616c01020001085061727469616c7301ff9c00010653746174657301ffa600" +
	"0106526573756c7401ffa8000103457272010c000000")

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// refusedOpenings are the peers the handshake must refuse by name: a legacy
// gob build, line noise, and a protocol-v4 build, whose hello is a
// well-formed frame naming an older version.
func refusedOpenings() map[string][]byte {
	noise := make([]byte, 64)
	rand.New(rand.NewSource(3)).Read(noise)
	v4 := &memConn{}
	if err := NewConn(v4).Send(&Msg{Kind: KindHello, Version: 4}); err != nil {
		panic(err)
	}
	return map[string][]byte{"legacy-gob-hello": legacyGobOpening, "random-bytes": noise, "v4-hello": v4.Bytes()}
}

// roundTrip pushes m through a real encoder/decoder pair and returns the
// decoded copy.
func roundTrip(t *testing.T, m *Msg, pair func(t *testing.T) (*Conn, *Conn)) *Msg {
	t.Helper()
	ca, cb := pair(t)
	errc := make(chan error, 1)
	go func() { errc <- ca.Send(m) }()
	got, err := cb.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("send: %v", err)
	}
	return got
}

// normalizeMsg maps empty slices to nil recursively: the codec does not
// distinguish nil from empty, so lossless means "equal after normalization".
func normalizeMsg(m *Msg) {
	if len(m.Partials) == 0 {
		m.Partials = nil
	}
	for i := range m.Partials {
		p := &m.Partials[i]
		if len(p.Nbrs) == 0 {
			p.Nbrs = nil
		}
		if len(p.Sims) == 0 {
			p.Sims = nil
		}
		if len(p.Cands) == 0 {
			p.Cands = nil
		}
	}
	if len(m.States) == 0 {
		m.States = nil
	}
	for i := range m.States {
		d := &m.States[i].Data
		if len(d.Nbrs) == 0 {
			d.Nbrs = nil
		}
		if len(d.Sims) == 0 {
			d.Sims = nil
		}
	}
	if len(m.Result.Preds) == 0 {
		m.Result.Preds = nil
	}
	for i := range m.Result.Preds {
		if len(m.Result.Preds[i].Preds) == 0 {
			m.Result.Preds[i].Preds = nil
		}
	}
	p := &m.Shard
	if len(p.Locals) == 0 {
		p.Locals = nil
	}
	if len(p.Deg) == 0 {
		p.Deg = nil
	}
	if len(p.EdgeSrc) == 0 {
		p.EdgeSrc = nil
	}
	if len(p.EdgeDst) == 0 {
		p.EdgeDst = nil
	}
	if len(p.IsMaster) == 0 {
		p.IsMaster = nil
	}
	if len(p.HasRemote) == 0 {
		p.HasRemote = nil
	}
}

// checkLossless asserts that a message survives the wire bit for bit on
// every pairing (modulo the nil/empty unification: the codec does not
// distinguish a nil slice from an empty one).
func checkLossless(t *testing.T, m *Msg) {
	t.Helper()
	want := *m
	normalizeMsg(&want)
	for _, pp := range protoPairs {
		got := roundTrip(t, m, pp.pair)
		normalizeMsg(got)
		if !reflect.DeepEqual(&want, got) {
			t.Fatalf("%s round trip lost data:\nsent %+v\ngot  %+v", pp.name, &want, got)
		}
	}
}

// randPartition generates a valid shard of an 8-wide fleet, sorted source
// runs included, as a cut emits them. n=0 produces the empty partition; hub
// makes one local vertex own almost every edge.
func randPartition(r *rand.Rand, n int, hub bool) graph.ShardFile {
	p := graph.ShardFile{Fingerprint: r.Uint64(), Shard: r.Intn(8), Shards: 8, NumVertices: n}
	if n == 0 {
		return p
	}
	// A sorted subset of [0, n) as the local table.
	for v := 0; v < n; v++ {
		if r.Intn(3) > 0 {
			p.Locals = append(p.Locals, graph.VertexID(v))
		}
	}
	if len(p.Locals) == 0 {
		p.Locals = append(p.Locals, graph.VertexID(r.Intn(n)))
	}
	for range p.Locals {
		p.Deg = append(p.Deg, int32(r.Intn(1000)))
		p.IsMaster = append(p.IsMaster, r.Intn(2) == 0)
		p.HasRemote = append(p.HasRemote, r.Intn(2) == 0)
	}
	edges := r.Intn(4 * len(p.Locals))
	if hub {
		edges = 5000 // one source fans out to thousands of targets
	}
	for i := 0; i < edges; i++ {
		src := int32(r.Intn(len(p.Locals)))
		if hub {
			src = 0
		}
		p.EdgeSrc = append(p.EdgeSrc, src)
		p.EdgeDst = append(p.EdgeDst, int32(r.Intn(len(p.Locals))))
	}
	slices.Sort(p.EdgeSrc)
	// No shard holds a self-loop: drop the pairs the sort turned into one.
	kept := 0
	for i, src := range p.EdgeSrc {
		if dst := p.EdgeDst[i]; dst != src {
			p.EdgeSrc[kept], p.EdgeDst[kept] = src, dst
			kept++
		}
	}
	p.EdgeSrc, p.EdgeDst = p.EdgeSrc[:kept], p.EdgeDst[:kept]
	return p
}

func randPartials(r *rand.Rand, kind int) []core.DistPartial {
	n := r.Intn(20)
	out := make([]core.DistPartial, 0, n)
	for i := 0; i < n; i++ {
		dp := core.DistPartial{V: graph.VertexID(r.Uint32())}
		m := r.Intn(30) + 1
		switch kind {
		case 0:
			for j := 0; j < m; j++ {
				dp.Nbrs = append(dp.Nbrs, graph.VertexID(r.Uint32()))
			}
		case 1:
			for j := 0; j < m; j++ {
				dp.Sims = append(dp.Sims, core.VertexSim{V: graph.VertexID(r.Uint32()), Sim: r.Float64()})
			}
		default:
			for j := 0; j < m; j++ {
				dp.Cands = append(dp.Cands, core.PathCand{Z: graph.VertexID(r.Uint32()), S: r.NormFloat64()})
			}
		}
		out = append(out, dp)
	}
	return out
}

func randStates(r *rand.Rand) []VertexState {
	n := r.Intn(10)
	out := make([]VertexState, 0, n)
	for i := 0; i < n; i++ {
		vs := VertexState{V: graph.VertexID(r.Uint32())}
		for j := r.Intn(10); j > 0; j-- {
			vs.Data.Nbrs = append(vs.Data.Nbrs, graph.VertexID(r.Uint32()))
		}
		for j := r.Intn(10); j > 0; j-- {
			vs.Data.Sims = append(vs.Data.Sims, core.VertexSim{V: graph.VertexID(r.Uint32()), Sim: r.Float64()})
		}
		out = append(out, vs)
	}
	return out
}

// TestShipRoundTrip property-tests that subgraph shipping is lossless,
// including the empty partition and hub-vertex skew.
func TestShipRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cases := []graph.ShardFile{
		randPartition(r, 0, false),   // empty partition
		randPartition(r, 1, false),   // single vertex
		randPartition(r, 4000, true), // hub vertex with thousands of edges
	}
	for i := 0; i < 20; i++ {
		cases = append(cases, randPartition(r, 1+r.Intn(200), false))
	}
	for _, part := range cases {
		if err := part.Validate(); err != nil {
			t.Fatalf("generator emitted an invalid shard: %v", err)
		}
		checkLossless(t, &Msg{Kind: KindShip, Version: ProtocolVersion, Shard: part})
	}
}

// TestPartialRoundTrip property-tests score-message exchange for all three
// gather payload types, including the empty batch.
func TestPartialRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	checkLossless(t, &Msg{Kind: KindPartials, Step: core.DistTruncate}) // empty
	for i := 0; i < 30; i++ {
		kind := i % 3
		step := []core.DistStep{core.DistTruncate, core.DistRelays, core.DistCombine}[kind]
		checkLossless(t, &Msg{Kind: KindPartials, Step: step, Partials: randPartials(r, kind)})
		checkLossless(t, &Msg{Kind: KindForeign, Step: step, Partials: randPartials(r, kind)})
	}
}

// TestStateAndResultRoundTrip covers refresh broadcasts and the collect
// payload (predictions + stats).
func TestStateAndResultRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 20; i++ {
		checkLossless(t, &Msg{Kind: KindRefresh, Step: core.DistRelays, States: randStates(r)})
		res := WorkerResult{
			Part: r.Intn(8),
			Stats: WorkerStats{
				Verts: r.Intn(1000), Edges: r.Intn(100000),
				BusySeconds:  r.Float64(),
				AllocBytes:   r.Int63(),
				AllocObjects: r.Int63(),
				HeapBytes:    r.Int63(),
			},
		}
		for j := r.Intn(20); j > 0; j-- {
			vp := VertexPreds{V: graph.VertexID(r.Uint32())}
			for k := r.Intn(5) + 1; k > 0; k-- {
				vp.Preds = append(vp.Preds, core.Prediction{Vertex: graph.VertexID(r.Uint32()), Score: r.NormFloat64()})
			}
			res.Preds = append(res.Preds, vp)
		}
		checkLossless(t, &Msg{Kind: KindResult, Result: res})
	}
}

// TestJobSpecConfigRoundTrip checks Config → JobSpec → Config for every
// Table 3 score.
func TestJobSpecConfigRoundTrip(t *testing.T) {
	for _, score := range core.ScoreNames() {
		spec, err := core.ScoreByName(score, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Score: spec, K: 7, KLocal: 4, ThrGamma: 11, Policy: core.SelectRnd, Seed: 99}
		job, err := JobFromConfig(cfg)
		if err != nil {
			t.Fatalf("%s: %v", score, err)
		}
		back, err := job.Config()
		if err != nil {
			t.Fatalf("%s: %v", score, err)
		}
		if back.Score.Name != score || back.Score.Alpha != 0.7 ||
			back.K != 7 || back.KLocal != 4 || back.ThrGamma != 11 ||
			back.Policy != core.SelectRnd || back.Paths != 2 || back.Seed != 99 {
			t.Fatalf("%s: config did not survive the wire: %+v", score, back)
		}
	}
	// A hand-assembled spec with anonymous functions must be rejected.
	bad := core.Config{Score: core.ScoreSpec{
		Name: "custom", Sim: core.Jaccard{}, Comb: core.SumComb(), Agg: core.AggSum(),
	}, K: 5}
	if _, err := JobFromConfig(bad); err == nil {
		t.Fatal("custom score crossed the wire")
	}
}

// TestConnCounters pins the traffic accounting Send/Recv maintain.
func TestConnCounters(t *testing.T) {
	ca, cb := pipePair(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			if _, err := cb.Recv(); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		if err := ca.Send(&Msg{Kind: KindStepBegin, Step: core.DistTruncate}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	sent, recvd := ca.Counters(), cb.Counters()
	if sent.MsgsOut != 3 || recvd.MsgsIn != 3 {
		t.Fatalf("message counts: sent %+v, received %+v", sent, recvd)
	}
	if sent.BytesOut == 0 || sent.BytesOut != recvd.BytesIn {
		t.Fatalf("byte counts disagree: sent %+v, received %+v", sent, recvd)
	}
	delta := sent.Sub(Counters{MsgsOut: 1})
	if delta.MsgsOut != 2 {
		t.Fatalf("Sub: %+v", delta)
	}
}

// TestExpectRejectsWrongKind pins the protocol guard.
func TestExpectRejectsWrongKind(t *testing.T) {
	ca, cb := pipePair(t)
	go func() { _ = ca.Send(&Msg{Kind: KindCollect}) }()
	if _, err := cb.Expect(KindStepBegin); err == nil {
		t.Fatal("wrong kind accepted")
	}
}

// TestErrorPropagation: a KindError surfaces as an error on Recv.
func TestErrorPropagation(t *testing.T) {
	ca, cb := pipePair(t)
	go func() { ca.SendError(errInjected{}) }()
	if _, err := cb.Recv(); err == nil {
		t.Fatal("remote error swallowed")
	}
}

type errInjected struct{}

func (errInjected) Error() string { return "injected failure" }

// serveWorkers runs a real listening worker for handshake tests and returns
// its address.
func serveWorkers(t *testing.T, o ServeOptions) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _ = ServeWith(l, nil, o) }()
	return l.Addr().String()
}

// flakyListener fails Accept with each of errs in turn, then hands over conn
// once, then reports itself closed.
type flakyListener struct {
	errs []error
	conn net.Conn
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if len(l.errs) > 0 {
		err := l.errs[0]
		l.errs = l.errs[1:]
		return nil, err
	}
	if c := l.conn; c != nil {
		l.conn = nil
		return c, nil
	}
	return nil, net.ErrClosed
}

func (l *flakyListener) Close() error   { return nil }
func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestServeRetriesDescriptorExhaustion: a worker out of file descriptors
// keeps its accept loop. Two EMFILE failures are logged and retried, the
// connection that follows is served, and the loop ends cleanly only when the
// listener closes.
func TestServeRetriesDescriptorExhaustion(t *testing.T) {
	worker, coord := net.Pipe()
	emfile := &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept4", syscall.EMFILE)}
	var mu sync.Mutex
	retries := 0
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if strings.Contains(fmt.Sprintf(format, args...), "retrying") {
			retries++
		}
	}
	if err := ServeWith(&flakyListener{errs: []error{emfile, emfile}, conn: worker}, logf, ServeOptions{}); err != nil {
		t.Fatalf("ServeWith = %v, want nil once the listener closes", err)
	}
	c := NewConn(coord)
	defer c.Close()
	if err := c.hello(DialOptions{}); err != nil {
		t.Fatal(err)
	}
	runMiniSession(t, c)
	mu.Lock()
	defer mu.Unlock()
	if retries != 2 {
		t.Errorf("%d retries logged, want 2", retries)
	}
}

// miniJob and miniShard are the smallest valid job and shard: an empty
// partition 3 of a 4-shard fleet.
var (
	miniJob   = JobSpec{Score: "linearSum", Alpha: 0.9, K: 5, KLocal: 20, ThrGamma: 200, Seed: 42}
	miniShard = graph.ShardFile{Fingerprint: 0xF1EE7, Shard: 3, Shards: 4}
)

// hostileShards are ship payloads that encode cleanly but break a shard
// invariant: each must be refused where the worker decodes it, by the shard
// decoder and its one validator, never discovered at an attach or
// mid-superstep. The last one breaks the format itself — its degree section
// disagrees with the header's local count — and the decoder says so before
// the validator runs; either way no Ready.
func hostileShards() map[string]graph.ShardFile {
	good := func() graph.ShardFile {
		return graph.ShardFile{
			Fingerprint: 0xF1EE7, Shard: 3, Shards: 4, NumVertices: 6,
			Locals:    []graph.VertexID{0, 2, 5},
			Deg:       []int32{2, 1, 0},
			EdgeSrc:   []int32{0, 0, 1},
			EdgeDst:   []int32{1, 2, 2},
			IsMaster:  []bool{true, false, true},
			HasRemote: []bool{true, false, false},
		}
	}
	out := map[string]graph.ShardFile{}
	mutate := func(name string, f func(s *graph.ShardFile)) {
		s := good()
		f(&s)
		out[name] = s
	}
	mutate("descending-locals", func(s *graph.ShardFile) { s.Locals = []graph.VertexID{5, 2, 0} })
	mutate("duplicate-local", func(s *graph.ShardFile) { s.Locals = []graph.VertexID{0, 2, 2} })
	mutate("local-beyond-graph", func(s *graph.ShardFile) { s.Locals = []graph.VertexID{0, 2, 6} })
	mutate("descending-edge-sources", func(s *graph.ShardFile) { s.EdgeSrc = []int32{1, 0, 0} })
	mutate("edge-index-out-of-range", func(s *graph.ShardFile) { s.EdgeDst = []int32{1, 2, 3} })
	mutate("negative-edge-index", func(s *graph.ShardFile) { s.EdgeSrc = []int32{-1, 0, 1} })
	mutate("shard-index-outside-fleet", func(s *graph.ShardFile) { s.Shard = 4 })
	mutate("column-length-mismatch", func(s *graph.ShardFile) { s.Deg = s.Deg[:2] })
	return out
}

// miniAttach opens a job over miniShard.
func miniAttach() *Msg {
	return &Msg{Kind: KindAttach, Version: ProtocolVersion, Job: miniJob,
		Attach: AttachSpec{Fingerprint: miniShard.Fingerprint, Shard: 3, Shards: 4}}
}

// runMiniSession drives a complete (zero-superstep) session over c: ship an
// empty shard, attach to it, collect the result. It proves the connection
// actually works end to end, not just that the handshake returned.
func runMiniSession(t *testing.T, c *Conn) {
	t.Helper()
	for _, open := range []*Msg{{Kind: KindShip, Version: ProtocolVersion, Shard: miniShard}, miniAttach()} {
		if err := c.Send(open); err != nil {
			t.Fatalf("%s: %v", open.Kind, err)
		}
		if _, err := c.Expect(KindReady); err != nil {
			t.Fatalf("ready after %s: %v", open.Kind, err)
		}
	}
	if err := c.Send(&Msg{Kind: KindCollect}); err != nil {
		t.Fatalf("collect: %v", err)
	}
	m, err := c.Expect(KindResult)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if m.Result.Part != 3 {
		t.Fatalf("result for partition %d, shipped partition 3", m.Result.Part)
	}
}

// TestAttachRejectsHostileEntries pins the scoped attach's input contract on
// a resident worker: a session's slots are the entries in the order they
// arrive, so entries out of vertex order, repeated, or naming a vertex the
// shard does not hold are refused with a typed error and no Ready — and the
// worker serves the next connection's well-formed attach.
func TestAttachRejectsHostileEntries(t *testing.T) {
	shard := &graph.ShardFile{
		Fingerprint: 0xF1EE7, Shard: 3, Shards: 4, NumVertices: 6,
		Locals:    []graph.VertexID{0, 2, 5},
		Deg:       []int32{2, 1, 0},
		EdgeSrc:   []int32{0, 0, 1},
		EdgeDst:   []int32{1, 2, 2},
		IsMaster:  []bool{true, false, true},
		HasRemote: []bool{true, false, false},
	}
	if err := shard.Validate(); err != nil {
		t.Fatal(err)
	}
	addr := serveWorkers(t, ServeOptions{Resident: shard})
	attach := func(entries ...ScopeEntry) error {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		m := miniAttach()
		m.Attach.Scoped, m.Attach.Entries = true, entries
		if err := c.Send(m); err != nil {
			return err
		}
		_, err = c.Expect(KindReady)
		return err
	}
	for name, entries := range map[string][]ScopeEntry{
		"descending": {{V: 5, Mask: 1}, {V: 0, Mask: 1}},
		"repeated":   {{V: 2, Mask: 1}, {V: 2, Mask: 3}},
		"not-local":  {{V: 0, Mask: 1}, {V: 4, Mask: 1}},
	} {
		if err := attach(entries...); err == nil || !IsRemoteError(err) {
			t.Errorf("%s: attach err = %v, want the worker's typed refusal", name, err)
		}
	}
	if err := attach(ScopeEntry{V: 0, Mask: 1, Role: RoleMaster}, ScopeEntry{V: 5, Mask: 3}); err != nil {
		t.Fatalf("well-formed attach after the refusals: %v", err)
	}
}

// TestWorkerRefusesInProcessSteps: BASELINE's step kinds run only in the
// sim's in-process driver, and no frame carries their lists. A worker asked
// for one refuses the superstep with a typed error, reported to the
// coordinator and returned.
func TestWorkerRefusesInProcessSteps(t *testing.T) {
	for _, step := range []core.DistStep{core.DistReplicate, core.DistJaccard} {
		a, b := net.Pipe()
		errc := make(chan error, 1)
		go func() { errc <- ServeConn(b) }()
		c := NewConn(a)
		if err := c.hello(DialOptions{}); err != nil {
			t.Fatal(err)
		}
		for _, open := range []*Msg{{Kind: KindShip, Version: ProtocolVersion, Shard: miniShard}, miniAttach()} {
			if err := c.Send(open); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Expect(KindReady); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Send(&Msg{Kind: KindStepBegin, Step: step}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recv(); !IsRemoteError(err) {
			t.Fatalf("%v: coordinator saw %v, want the worker's typed error frame", step, err)
		}
		c.Close()
		if err := <-errc; !errors.Is(err, core.ErrInProcessStep) {
			t.Fatalf("%v: ServeConn returned %v, want core.ErrInProcessStep", step, err)
		}
	}
}

// TestHandshake covers the hello exchange: compression granted between two
// v3 ends, and the version contract against peers that are not — each side
// names the mismatch with ErrProtocolMismatch, and a dialer facing a peer
// that answers nothing gives up at HelloTimeout instead of hanging.
func TestHandshake(t *testing.T) {
	t.Run("compression-granted", func(t *testing.T) {
		addr := serveWorkers(t, ServeOptions{})
		c, err := DialWith(addr, DialOptions{Compress: true})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if !c.compress {
			t.Fatal("compression requested but not granted")
		}
		runMiniSession(t, c)
	})
	// fakeListener accepts one connection, reads the dialer's hello, answers
	// with reply (nothing when nil) and holds the connection until the dialer
	// closes it.
	fakeListener := func(t *testing.T, reply []byte) string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			_, _ = c.Write(reply)
			_, _ = io.Copy(io.Discard, c)
		}()
		return l.Addr().String()
	}
	for name, opening := range refusedOpenings() {
		t.Run("dial/"+name, func(t *testing.T) {
			c, err := DialWith(fakeListener(t, opening), DialOptions{HelloTimeout: 5 * time.Second})
			if err == nil {
				c.Close()
				t.Fatal("dial succeeded against a non-v3 listener")
			}
			if !errors.Is(err, ErrProtocolMismatch) {
				t.Fatalf("err = %v, want ErrProtocolMismatch", err)
			}
		})
		t.Run("accept/"+name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			errc := make(chan error, 1)
			go func() { errc <- ServeConn(b) }()
			go func() { _, _ = a.Write(opening) }()
			// The worker names the mismatch to the peer in a typed error frame
			// before closing, and returns it.
			if _, err := NewConn(a).Recv(); !IsRemoteError(err) {
				t.Fatalf("peer saw %v, want the worker's typed error frame", err)
			}
			if err := <-errc; !errors.Is(err, ErrProtocolMismatch) {
				t.Fatalf("ServeConn returned %v, want ErrProtocolMismatch", err)
			}
		})
	}
	t.Run("dial/silent-listener", func(t *testing.T) {
		const helloTimeout = 300 * time.Millisecond
		start := time.Now()
		c, err := DialWith(fakeListener(t, nil), DialOptions{HelloTimeout: helloTimeout})
		if err == nil {
			c.Close()
			t.Fatal("dial succeeded against a listener that never answers")
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("err = %v, want a timeout", err)
		}
		if d := time.Since(start); d > 10*helloTimeout {
			t.Fatalf("dial took %v with a %v hello timeout", d, helloTimeout)
		}
	})
}

// TestCompressionShrinksWire pins the point of the compression flag: the
// same highly-compressible payload crosses the wire in fewer bytes on a
// compressed connection.
func TestCompressionShrinksWire(t *testing.T) {
	msg := &Msg{Kind: KindMirrors, Step: core.DistRelays}
	for i := 0; i < 50; i++ {
		vs := VertexState{V: graph.VertexID(i)}
		for j := 0; j < 100; j++ {
			vs.Data.Sims = append(vs.Data.Sims, core.VertexSim{V: graph.VertexID(j), Sim: 0.5})
		}
		msg.States = append(msg.States, vs)
	}
	bytesAcross := func(pair func(t *testing.T) (*Conn, *Conn)) int64 {
		ca, cb := pair(t)
		errc := make(chan error, 1)
		go func() { errc <- ca.Send(msg) }()
		if _, err := cb.Recv(); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		return ca.Counters().BytesOut
	}
	plain := bytesAcross(pipePair)
	zipped := bytesAcross(zipPair)
	if zipped >= plain/2 {
		t.Fatalf("compression saved too little: %d plain, %d compressed", plain, zipped)
	}
}

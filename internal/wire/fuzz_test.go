package wire

import (
	"bytes"
	"maps"
	"slices"
	"testing"

	"snaple/internal/core"
	"snaple/internal/graph"
)

// memConn adapts a byte buffer to the transport interface NewConn expects.
type memConn struct{ bytes.Buffer }

func (*memConn) Close() error { return nil }

// frameBytes encodes one message through a real connection and returns the
// raw frame.
func frameBytes(tb testing.TB, m *Msg, compress bool) []byte {
	tb.Helper()
	buf := &memConn{}
	c := NewConn(buf)
	c.SetCompression(compress)
	if err := c.Send(m); err != nil {
		tb.Fatal(err)
	}
	return append([]byte(nil), buf.Bytes()...)
}

// frameBytesRaw frames a pre-encoded payload of kind through a real
// connection and returns the raw frame.
func frameBytesRaw(tb testing.TB, kind Kind, payload []byte) []byte {
	tb.Helper()
	buf := &memConn{}
	if err := NewConn(buf).SendRaw(kind, core.DistRelays, true, payload); err != nil {
		tb.Fatal(err)
	}
	return append([]byte(nil), buf.Bytes()...)
}

// v4StateBatch is a one-record state batch in protocol v4's layout: the
// vertex, four counts (Γ̂, relays, 3-hop path list, predictions), then the
// four columns.
func v4StateBatch() []byte {
	b := appendU32(nil, 1) // one record
	b = appendU32(b, 2)    // vertex
	for _, n := range []uint32{2, 1, 1, 1} {
		b = appendU32(b, n)
	}
	b = appendVertexIDs(b, []graph.VertexID{0, 5})
	b = appendVertexSims(b, []core.VertexSim{{V: 0, Sim: 0.5}})
	b = appendPathCands(b, []core.PathCand{{Z: 5, S: 0.125}})
	return appendPredictions(b, []core.Prediction{{Vertex: 5, Score: 2.5}})
}

// decodeOne decodes the first frame of data through a real connection.
func decodeOne(data []byte) (*Msg, error) {
	src := &memConn{}
	src.Write(data)
	return NewConn(src).Recv()
}

// fuzzSeedMsgs is one message of every kind, hostile shard ships, and a
// mirrors batch big and repetitive enough that compression shrinks it.
func fuzzSeedMsgs() []*Msg {
	job := JobSpec{Score: "linearSum", Alpha: 0.9, K: 5, KLocal: 20, ThrGamma: 200, Seed: 42}
	shard := graph.ShardFile{
		Fingerprint: 0xFEEDFACE, Shard: 1, Shards: 2, NumVertices: 6,
		Locals:  []graph.VertexID{0, 2, 5},
		Deg:     []int32{2, 1, 0},
		EdgeSrc: []int32{0, 0, 1},
		EdgeDst: []int32{1, 2, 2},
		Roles:   []uint8{graph.RoleMaster | graph.RoleRemote, 0, graph.RoleMaster},
	}
	partials := []core.DistPartial{
		{V: 0, Nbrs: []graph.VertexID{2, 5}},
		{V: 2, Sims: []core.VertexSim{{V: 5, Sim: 0.25}}},
		{V: 5, Cands: []core.PathCand{{Z: 0, S: 1.5}, {Z: 2, S: -0.5}}},
	}
	states := []VertexState{{V: 2, Data: core.VData{
		Nbrs: []graph.VertexID{0, 5},
		Sims: []core.VertexSim{{V: 0, Sim: 0.5}},
	}}}
	result := WorkerResult{
		Part:  1,
		Preds: []VertexPreds{{V: 0, Preds: []core.Prediction{{Vertex: 5, Score: 1.25}}}},
		Stats: WorkerStats{Verts: 3, Edges: 3, BusySeconds: 0.5, AllocBytes: 4096, AllocObjects: 7, HeapBytes: 1 << 20},
	}
	seeds := []*Msg{
		{Kind: KindHello, Version: ProtocolVersion, Features: featCompress},
		{Kind: KindShip, Version: ProtocolVersion, Shard: shard},
		{Kind: KindAttach, Version: ProtocolVersion, Job: job, Attach: AttachSpec{
			Fingerprint: 0xFEEDFACE, Shard: 1, Shards: 2, Scoped: true,
			Verts: []graph.VertexID{0, 5}, Masks: []uint8{7, 3}, Roles: []uint8{graph.RoleMaster | graph.RoleRemote, 0},
		}},
		{Kind: KindReady},
		{Kind: KindStepBegin, Step: core.DistRelays, Final: true},
		{Kind: KindPartials, Step: core.DistTruncate, Partials: partials},
		{Kind: KindForeign, Step: core.DistCombine, Partials: partials, Final: true},
		{Kind: KindRefresh, Step: core.DistRelays, States: states},
		{Kind: KindMirrors, Step: core.DistTruncate, States: states, Final: true},
		{Kind: KindCollect},
		{Kind: KindResult, Result: result},
		{Kind: KindError, Err: "injected failure"},
	}
	hostile := hostileShards()
	for _, name := range slices.Sorted(maps.Keys(hostile)) {
		seeds = append(seeds, &Msg{Kind: KindShip, Version: ProtocolVersion, Shard: hostile[name]})
	}
	// A compressed frame needs a payload big and repetitive enough to shrink.
	big := &Msg{Kind: KindMirrors, Step: core.DistRelays}
	for i := 0; i < 40; i++ {
		vs := VertexState{V: graph.VertexID(i)}
		for j := 0; j < 50; j++ {
			vs.Data.Sims = append(vs.Data.Sims, core.VertexSim{V: graph.VertexID(j), Sim: 0.5})
		}
		big.States = append(big.States, vs)
	}
	return append(seeds, big)
}

// FuzzWireFrame throws arbitrary bytes at the frame decoder. Truncations,
// bit-flips and lying length prefixes must surface as clean errors — never a
// panic, and never an allocation beyond the bytes that actually arrived
// (readCapped grows in bounded chunks; the per-array count guards check
// declared element counts against the remaining payload). Any input that
// does decode must re-encode canonically: decode → encode → decode → encode
// is byte-stable. Every record of an accepted batch frame must also decode
// the way a worker decodes it, into reused scratch, to what Recv decoded.
func FuzzWireFrame(f *testing.F) {
	for _, m := range fuzzSeedMsgs() {
		f.Add(frameBytes(f, m, false))
		f.Add(frameBytes(f, m, true))
	}
	for _, opening := range refusedOpenings() {
		f.Add(opening)
	}
	// A state record is Γ̂ and the relays and nothing else. A refresh whose
	// record still carries protocol v4's four count columns (the 3-hop path
	// list and the predictions after them) must be refused, not misread.
	v4Refresh := frameBytesRaw(f, KindRefresh, v4StateBatch())
	if m, err := decodeOne(v4Refresh); err == nil {
		f.Fatalf("a refresh with v4's four-column state record decoded as %+v", m.States)
	}
	f.Add(v4Refresh)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeOne(data)
		if err != nil {
			return // rejected cleanly
		}
		if m.Kind == KindError {
			return // surfaces as an error from Recv, never reaches here
		}
		switch m.Kind {
		case KindPartials, KindForeign, KindRefresh, KindMirrors:
			checkScratchDecode(t, data, m)
		}
		enc1 := frameBytes(t, m, false)
		m2, err := decodeOne(enc1)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		enc2 := frameBytes(t, m2, false)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("decode→encode not canonical:\nfirst  %x\nsecond %x", enc1, enc2)
		}
	})
}

// checkScratchDecode decodes every record of an accepted batch frame a second
// time the way a worker does — appended to a dirty apply scratch for
// partials, overwriting a dirty, pre-grown replica for states — and holds the
// result to Recv's fresh decode. Records compare by their encoding, so NaN
// scores compare equal to themselves.
func checkScratchDecode(t *testing.T, data []byte, m *Msg) {
	t.Helper()
	src := &memConn{}
	src.Write(data)
	f, err := NewConn(src).RecvRaw()
	if err != nil {
		t.Fatalf("RecvRaw refused what Recv accepted: %v", err)
	}
	junkID := []graph.VertexID{9, 8, 7}
	junkPair := []core.VertexSim{{V: 9, Sim: -1}, {V: 8, Sim: 2}}
	junkCand := []core.PathCand{{Z: 9, S: 3}}
	i := 0
	err = ForEachRecord(f.Kind, f.Payload, func(v graph.VertexID, rec []byte) error {
		var got, want []byte
		if f.Kind == KindPartials || f.Kind == KindForeign {
			sc := core.DistPartial{
				Nbrs:  append(make([]graph.VertexID, 0, 64), junkID...),
				Sims:  append(make([]core.VertexSim, 0, 64), junkPair...),
				Cands: append(make([]core.PathCand, 0, 64), junkCand...),
			}
			if err := decodePartialRecord(&sc, rec); err != nil {
				return err
			}
			if len(sc.Nbrs) < len(junkID) || !slices.Equal(sc.Nbrs[:len(junkID)], junkID) ||
				len(sc.Sims) < len(junkPair) || !slices.Equal(sc.Sims[:len(junkPair)], junkPair) ||
				len(sc.Cands) < len(junkCand) || !slices.Equal(sc.Cands[:len(junkCand)], junkCand) {
				t.Fatalf("record %d: decode clobbered the scratch it appends to", i)
			}
			got = appendPartialRecord(nil, &core.DistPartial{V: v,
				Nbrs: sc.Nbrs[len(junkID):], Sims: sc.Sims[len(junkPair):], Cands: sc.Cands[len(junkCand):]})
			want = appendPartialRecord(nil, &m.Partials[i])
		} else {
			d := core.VData{
				Nbrs: append(make([]graph.VertexID, 0, 64), junkID...)[:0],
				Sims: append(make([]core.VertexSim, 0, 64), junkPair...)[:0],
			}
			if err := decodeStateRecord(&d, rec); err != nil {
				return err
			}
			got = appendStateRecord(nil, v, &d)
			want = appendStateRecord(nil, m.States[i].V, &m.States[i].Data)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: scratch decode %x, fresh decode %x", i, got, want)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatalf("scratch decode refused a record Recv accepted: %v", err)
	}
}

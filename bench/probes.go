package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"snaple/internal/core"
	"snaple/internal/engine"
	"snaple/internal/graph"
	"snaple/internal/partition"
	"snaple/internal/randx"
	"snaple/internal/serve"
	"snaple/internal/topk"
	"snaple/internal/wire"
)

// The per-layer probes: each layer's public functions, timed in this
// process on the same G and the same kind of requests the workloads send.
// They run on traced invocations only and measure the layers from outside;
// spans inside the programs are ROADMAP item 2.
//
// Every probe records a span named after the layer function it calls, so
// the trace shows where a traced invocation's own time went.

type prober struct {
	in  *input
	tr  *tracer
	out map[string]metric
}

func (p *prober) set(name string, value float64, unit string, n int) {
	p.out[name] = metric{value, unit, n}
}

// timed runs fn under a span and returns its wall time.
func (p *prober) timed(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	p.tr.add(name, start, end, 0, 0, nil)
	return end.Sub(start)
}

// sampleIDs draws count vertex ids the way the uniform workloads do.
func (p *prober) sampleIDs(stream uint64, count int) []graph.VertexID {
	r := randx.NewRand(p.in.seed, stream)
	ids := make([]graph.VertexID, count)
	for i := range ids {
		ids[i] = graph.VertexID(p.in.perm[r.Intn(len(p.in.perm))])
	}
	return ids
}

func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// runProbes measures every layer and returns the per-layer metrics.
func runProbes(in *input, tr *tracer) (map[string]metric, error) {
	p := &prober{in: in, tr: tr, out: map[string]metric{}}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, probe := range []func() error{
		p.graphLayer, p.coreLayer, p.topkLayer, p.engineLayer, p.fleetLayer,
		p.partitionLayer, p.wireLayer, p.serveLayer,
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	p.set("rt.gc_cycles", float64(m1.NumGC-m0.NumGC), "count", 1)
	p.set("rt.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms", int(m1.NumGC-m0.NumGC))
	p.set("loadgen.gen_s", in.genSeconds, "s", 1)
	return p.out, nil
}

func (p *prober) graphLayer() error {
	in := p.in
	p.set("graph.build_edges_per_s", in.buildEdgesPS, "1/s", 1)

	var opens [2][]float64
	for range 5 {
		for i, noMap := range []bool{false, true} {
			var err error
			d := p.timed("graph.open", func() {
				_, _, err = graph.OpenGraphFile(in.sgr, graph.ReadOptions{NoMap: noMap})
			})
			if err != nil {
				return err
			}
			opens[i] = append(opens[i], ms(d))
		}
	}
	p.set("graph.open_mmap_ms", quantile(opens[0], 0.5), "ms", len(opens[0]))
	p.set("graph.open_heap_ms", quantile(opens[1], 0.5), "ms", len(opens[1]))

	// The live side: a base with in-edges (what -mutable serves), a stream
	// of batches shaped like serve-live's, and the overlay they leave.
	base, err := graph.ReadGraphFile(in.sgr, graph.ReadOptions{WithInEdges: true})
	if err != nil {
		return err
	}
	r := randx.NewRand(in.seed, 5)
	n := len(in.perm)
	view := graph.NewDelta(base)
	var applyUs, dirtyUs, dirtyCount []float64
	for range 200 {
		add := randomAdds(r, in.perm)
		var remove []graph.Edge
		for len(remove) < liveRemoves {
			u := graph.VertexID(in.perm[r.Intn(n)])
			if row := base.OutNeighbors(u); len(row) > 0 {
				remove = append(remove, graph.Edge{Src: u, Dst: row[r.Intn(len(row))]})
			}
		}
		d := p.timed("graph.delta_apply", func() { view, err = view.Apply(add, remove) })
		if err != nil {
			return err
		}
		applyUs = append(applyUs, float64(d.Nanoseconds())/1e3)
		var dirty *core.VertexSet
		d = p.timed("core.dirty_sources", func() { dirty = core.DirtySources(view, add, remove, cfgPaths) })
		dirtyUs = append(dirtyUs, float64(d.Nanoseconds())/1e3)
		dirtyCount = append(dirtyCount, float64(dirty.Len()))
	}
	p.set("graph.delta_apply_us", quantile(applyUs, 0.5), "us", len(applyUs))
	p.set("core.dirty_sources_us", quantile(dirtyUs, 0.5), "us", len(dirtyUs))
	p.set("core.dirty_sources_count", quantile(dirtyCount, 0.5), "count", len(dirtyCount))

	var folded *graph.Digraph
	d := p.timed("graph.materialize", func() { folded = view.Materialize() })
	if folded.NumEdges() != view.NumEdges() {
		return fmt.Errorf("graph probe: Materialize has %d edges, its overlay %d", folded.NumEdges(), view.NumEdges())
	}
	p.set("graph.materialize_ms", ms(d), "ms", 1)

	ids := p.sampleIDs(6, 100_000)
	rows := func(v graph.View) float64 {
		var buf []graph.VertexID
		sum := 0
		d := p.timed("graph.rows", func() {
			for _, u := range ids {
				buf = v.AppendOutRow(buf[:0], u)
				sum += len(buf)
			}
		})
		if sum == 0 {
			return 0 // an edgeless sample; also keeps the loop observable
		}
		return float64(d.Nanoseconds()) / float64(len(ids))
	}
	p.set("graph.row_ns.csr", rows(in.g), "ns", len(ids))
	p.set("graph.row_ns.packed", rows(graph.PackGraph(in.g)), "ns", len(ids))
	p.set("graph.row_ns.delta", rows(view), "ns", len(ids))
	return nil
}

// coreLayer times the frontier closure, the arena, and Algorithm 2's three
// steps as serial count/fill loops over all of G — the loops Serial runs,
// which also re-derives the oracle, so a kernel that got faster by getting
// wrong fails here.
func (p *prober) coreLayer() error {
	in := p.in
	g := in.g
	n := g.NumVertices()

	var frontierUs, frontierSize []float64
	for _, id := range p.sampleIDs(7, 200) {
		cfg := in.cfg
		cfg.Sources = []graph.VertexID{id}
		var f *core.Frontier
		var err error
		d := p.timed("core.frontier", func() { f, err = core.NewFrontier(g, cfg) })
		if err != nil {
			return err
		}
		frontierUs = append(frontierUs, float64(d.Nanoseconds())/1e3)
		frontierSize = append(frontierSize, float64(f.Size()))
	}
	p.set("core.frontier_us", quantile(frontierUs, 0.5), "us", len(frontierUs))
	p.set("core.frontier_vertices", quantile(frontierSize, 0.5), "count", len(frontierSize))

	var arenaUs []float64
	for range 20 {
		d := p.timed("core.arena_alloc", func() { core.NewArena[core.VertexSim](n).FinishCounts() })
		arenaUs = append(arenaUs, float64(d.Nanoseconds())/1e3)
	}
	p.set("core.arena_alloc_us", quantile(arenaUs, 0.5), "us", len(arenaUs))

	r, err := core.NewStepRunner(g, in.cfg)
	if err != nil {
		return err
	}
	s := r.NewScratch()
	each := func(fn func(u graph.VertexID)) {
		for u := range n {
			fn(graph.VertexID(u))
		}
	}
	trunc := core.NewArena[graph.VertexID](n)
	d := p.timed("core.truncate", func() {
		each(func(u graph.VertexID) { trunc.SetCount(u, r.TruncateCount(u, s)) })
		trunc.FinishCounts()
		each(func(u graph.VertexID) { r.TruncateFill(u, trunc.Row(u), s) })
	})
	p.set("core.truncate_ns_per_vertex", float64(d.Nanoseconds())/float64(n), "ns", n)
	sims := core.NewArena[core.VertexSim](n)
	d = p.timed("core.relays", func() {
		each(func(u graph.VertexID) { sims.SetCount(u, r.RelayCount(u)) })
		sims.FinishCounts()
		each(func(u graph.VertexID) { r.RelaysFill(u, trunc, sims.Row(u), s) })
	})
	p.set("core.relays_ns_per_vertex", float64(d.Nanoseconds())/float64(n), "ns", n)
	rows := make([]uint64, n)
	d = p.timed("core.combine", func() {
		var buf []core.Prediction
		each(func(u graph.VertexID) {
			buf = r.CombineAppend(u, trunc, sims, s, buf[:0])
			rows[u] = hashRow(buf, cfgK)
		})
	})
	p.set("core.combine_ns_per_vertex", float64(d.Nanoseconds())/float64(n), "ns", n)
	if foldHashes(rows) != foldHashes(in.oracleK) {
		return fmt.Errorf("core probe: the step loops differ from the Serial oracle")
	}
	return nil
}

func (p *prober) topkLayer() error {
	const pushes = 1_000_000
	c := topk.New(cfgK)
	x := p.in.seed | 1
	d := p.timed("topk.push", func() {
		for i := range pushes {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			c.Push(uint32(i), float64(x>>11))
		}
	})
	if c.Len() != cfgK {
		return fmt.Errorf("topk probe: kept %d of %d", c.Len(), cfgK)
	}
	p.set("topk.push_ns", float64(d.Nanoseconds())/pushes, "ns", pushes)
	return nil
}

// predict runs one backend query under a span and checks every source row
// against the oracle.
func (p *prober) predict(be engine.Backend, g graph.View, sources []graph.VertexID) (engine.Stats, time.Duration, error) {
	cfg := p.in.cfg
	cfg.Sources = sources
	var preds core.Predictions
	var st engine.Stats
	var err error
	d := p.timed("engine.predict", func() { preds, st, err = be.Predict(g, cfg) })
	if err != nil {
		return st, d, err
	}
	if len(sources) == 0 && foldRows(preds, cfgK) != foldHashes(p.in.oracleK) {
		return st, d, fmt.Errorf("%s full run differs from the Serial oracle", be.Name())
	}
	for _, u := range sources {
		if hashRow(preds[u], cfgK) != p.in.oracleK[u] {
			return st, d, fmt.Errorf("%s: vertex %d differs from the Serial oracle", be.Name(), u)
		}
	}
	return st, d, nil
}

func (p *prober) engineLayer() error {
	in := p.in
	p.set("engine.serial_full_s", in.serialSeconds, "s", 1)

	var fullS, fullMB []float64
	for range 3 {
		st, _, err := p.predict(engine.Local{}, in.g, nil)
		if err != nil {
			return err
		}
		fullS = append(fullS, st.WallSeconds)
		fullMB = append(fullMB, float64(st.AllocBytes)/(1<<20))
	}
	p.set("engine.local_full_s", quantile(fullS, 0.5), "s", len(fullS))
	p.set("engine.local_full_alloc_mb", quantile(fullMB, 0.5), "MB", len(fullMB))

	for _, shape := range []struct{ sources, reps int }{{1, 60}, {16, 30}, {256, 10}} {
		var wallMs, allocMB, frontier []float64
		ids := p.sampleIDs(8, shape.sources*shape.reps)
		for i := range shape.reps {
			st, d, err := p.predict(engine.Local{}, in.g, ids[i*shape.sources:(i+1)*shape.sources])
			if err != nil {
				return err
			}
			wallMs = append(wallMs, ms(d))
			allocMB = append(allocMB, float64(st.AllocBytes)/(1<<20))
			frontier = append(frontier, float64(st.FrontierVertices))
		}
		p.set(fmt.Sprintf("engine.local_scoped_ms.s%d", shape.sources), quantile(wallMs, 0.5), "ms", len(wallMs))
		if shape.sources == 1 {
			p.set("engine.local_scoped_alloc_mb.s1", quantile(allocMB, 0.5), "MB", len(allocMB))
			p.set("engine.local_scoped_frontier.s1", quantile(frontier, 0.5), "count", len(frontier))
		}
	}

	st, _, err := p.predict(engine.Dist{InProc: fleetShards}, in.g, nil)
	if err != nil {
		return err
	}
	p.set("engine.dist_full_s", st.WallSeconds, "s", 1)
	p.set("engine.dist_cross_bytes", float64(st.CrossBytes), "bytes", 1)
	p.set("partition.replication_factor", st.ReplicationFactor, "ratio", 1)
	return nil
}

// fleetLayer: an in-process resident fleet of the workload's width, asked
// the workload's kind of query (8 uniform ids).
func (p *prober) fleetLayer() error {
	in := p.in
	var fleet *engine.Fleet
	var err error
	d := p.timed("engine.fleet_open", func() {
		fleet, err = engine.OpenFleet(in.g, engine.FleetOptions{InProc: fleetShards})
	})
	if err != nil {
		return err
	}
	defer fleet.Close()
	p.set("engine.fleet_open_s", d.Seconds(), "s", 1)

	const queries = 40
	ids := p.sampleIDs(9, 8*queries)
	var wallMs []float64
	var cross, msgs, ship, failovers int64
	a0 := allocBytes()
	for i := range queries {
		st, d, err := p.predict(fleet, in.g, ids[i*8:(i+1)*8])
		if err != nil {
			return err
		}
		wallMs = append(wallMs, ms(d))
		cross += st.CrossBytes
		msgs += st.CrossMsgs
		ship += st.ShipBytes
		failovers += int64(st.Failovers)
	}
	a1 := allocBytes()
	p.set("engine.fleet_scoped_ms.s8", quantile(wallMs, 0.5), "ms", queries)
	p.set("engine.fleet_alloc_mb_per_query", float64(a1-a0)/(1<<20)/queries, "MB", queries)
	p.set("engine.fleet_cross_bytes_per_query", float64(cross)/queries, "bytes", queries)
	p.set("engine.fleet_cross_msgs_per_query", float64(msgs)/queries, "count", queries)
	p.set("engine.fleet_ship_bytes_per_query", float64(ship)/queries, "bytes", queries)
	p.set("engine.fleet_failovers", float64(failovers), "count", queries)
	return nil
}

func (p *prober) partitionLayer() error {
	var err error
	d := p.timed("partition.cut", func() {
		_, err = partition.HashEdge{Seed: cfgSeed}.Partition(p.in.g, fleetShards)
	})
	p.set("partition.cut_s", d.Seconds(), "s", 1)
	return err
}

// codecBuffer is an in-memory wire transport.
type codecBuffer struct{ bytes.Buffer }

func (*codecBuffer) Close() error { return nil }

// wireLayer pushes one superstep's representative traffic — a partials
// batch up, a state refresh down — through the v3 codec with no socket in
// the way.
func (p *prober) wireLayer() error {
	const idSpace = 50_000
	id := func(x int) graph.VertexID { return graph.VertexID(x % idSpace) }
	partials := make([]core.DistPartial, 2000)
	for i := range partials {
		pt := core.DistPartial{V: graph.VertexID(i)}
		for j := range 4 {
			pt.Nbrs = append(pt.Nbrs, id(i*7+j*13))
			pt.Sims = append(pt.Sims, core.VertexSim{V: id(i*5 + j*17), Sim: 1 / float64(j+1)})
		}
		for j := range 6 {
			pt.Cands = append(pt.Cands, core.PathCand{Z: id(i*11 + j), S: float64(i%17) * 0.125})
		}
		partials[i] = pt
	}
	states := make([]wire.VertexState, 600)
	for i := range states {
		s := wire.VertexState{V: graph.VertexID(i)}
		for j := range 6 {
			s.Data.Nbrs = append(s.Data.Nbrs, id(i*3+j*7))
			s.Data.Sims = append(s.Data.Sims, core.VertexSim{V: id(i*13 + j), Sim: 1 / float64(j+2)})
		}
		states[i] = s
	}
	msgs := []*wire.Msg{
		{Kind: wire.KindPartials, Step: core.DistCombine, Partials: partials},
		{Kind: wire.KindRefresh, Step: core.DistRelays, States: states, Final: true},
	}
	c := wire.NewConn(&codecBuffer{})
	var encNs, decNs []float64
	var frameBytes int64
	for i := range 21 {
		before := c.Counters().BytesOut
		var err error
		enc := p.timed("wire.encode", func() {
			for _, m := range msgs {
				if err == nil {
					err = c.Send(m)
				}
			}
		})
		if err != nil {
			return err
		}
		frameBytes = c.Counters().BytesOut - before
		dec := p.timed("wire.decode", func() {
			for range msgs {
				if err == nil {
					_, err = c.Recv()
				}
			}
		})
		if err != nil {
			return err
		}
		if i > 0 { // the first round sizes the connection's reusable buffers
			encNs = append(encNs, float64(enc.Nanoseconds()))
			decNs = append(decNs, float64(dec.Nanoseconds()))
		}
	}
	p.set("wire.frame_bytes", float64(frameBytes), "bytes", 1)
	p.set("wire.encode_mb_per_s", float64(frameBytes)/quantile(encNs, 0.5)*1e3, "MB/s", len(encNs))
	p.set("wire.decode_mb_per_s", float64(frameBytes)/quantile(decNs, 0.5)*1e3, "MB/s", len(decNs))
	return nil
}

// spanBackend wraps a backend so each run leaves an engine.predict span
// whose parent is the oldest handler in flight.
type spanBackend struct {
	engine.Backend
	tr *tracer

	mu       sync.Mutex
	inflight []int64 // serve.handle span ids, oldest first
	runs     []time.Duration
}

func (b *spanBackend) Predict(g graph.View, cfg core.Config) (core.Predictions, engine.Stats, error) {
	start := time.Now()
	preds, st, err := b.Backend.Predict(g, cfg)
	end := time.Now()
	b.mu.Lock()
	parent := int64(0)
	if len(b.inflight) > 0 {
		parent = b.inflight[0]
	}
	b.runs = append(b.runs, end.Sub(start))
	b.mu.Unlock()
	b.tr.add("engine.predict", start, end, parent, parent, map[string]int64{
		"sources": int64(len(cfg.Sources)), "frontier_vertices": int64(st.FrontierVertices),
		"alloc_bytes": st.AllocBytes, "cross_bytes": st.CrossBytes,
	})
	return preds, st, err
}

// handle serves one request through h under a serve.handle span.
func (b *spanBackend) handle(h http.Handler, body []byte) (time.Duration, int64, int) {
	id := b.tr.reserve()
	b.mu.Lock()
	b.inflight = append(b.inflight, id)
	b.mu.Unlock()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	start := time.Now()
	h.ServeHTTP(rec, req)
	end := time.Now()
	b.mu.Lock()
	for i, x := range b.inflight {
		if x == id {
			b.inflight = append(b.inflight[:i], b.inflight[i+1:]...)
			break
		}
	}
	b.mu.Unlock()
	b.tr.finish(id, "serve.handle", start, end, 0, id, nil)
	return end.Sub(start), id, rec.Code
}

// serveLayer drives internal/serve in process, one request at a time:
// cold ids first (each costs a run; the handler's self time is queue +
// batch window + LRU + JSON), then the same ids again (pure hit path).
func (p *prober) serveLayer() error {
	in := p.in
	be := &spanBackend{Backend: engine.Local{}, tr: p.tr}
	srv, err := serve.New(serve.Options{Graph: in.g, Backend: be, Config: in.cfg})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()

	ids := p.sampleIDs(10, 100)
	var handles []int64
	for _, id := range ids {
		_, span, code := be.handle(h, predictBody([]uint32{uint32(id)}))
		if code != http.StatusOK {
			return fmt.Errorf("serve probe: status %d", code)
		}
		handles = append(handles, span)
	}
	self := selfTimes(p.tr.snapshot()[handles[0]-1:]) // span ids are positions + 1
	var selfMs, runMs []float64
	for _, id := range handles {
		selfMs = append(selfMs, float64(self[id])/1e6)
	}
	for _, d := range be.runs {
		runMs = append(runMs, ms(d))
	}
	p.set("serve.run_ms", quantile(runMs, 0.5), "ms", len(runMs))
	p.set("serve.self_ms", quantile(selfMs, 0.5), "ms", len(selfMs))

	var hitUs []float64
	for range 10 {
		for _, id := range ids {
			d, _, code := be.handle(h, predictBody([]uint32{uint32(id)}))
			if code != http.StatusOK {
				return fmt.Errorf("serve probe: status %d", code)
			}
			hitUs = append(hitUs, float64(d.Nanoseconds())/1e3)
		}
	}
	p.set("serve.hit_handler_us", quantile(hitUs, 0.5), "us", len(hitUs))
	return nil
}

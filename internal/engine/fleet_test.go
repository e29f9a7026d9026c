package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"snaple/internal/core"
	"snaple/internal/gen"
	"snaple/internal/graph"
	"snaple/internal/leakcheck"
	"snaple/internal/partition"
	"snaple/internal/wire"
)

// serveResident stands up one resident loopback worker per shard file (times
// replicas), returning their addresses shard-major — the test double for a
// fleet of `snaple-worker -shard` processes.
func serveResident(t *testing.T, files []*graph.ShardFile, replicas int) []string {
	t.Helper()
	addrs := make([]string, 0, len(files)*replicas)
	for _, res := range files {
		for r := 0; r < replicas; r++ {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			go func() { _ = wire.ServeWith(l, nil, wire.ServeOptions{Resident: res}) }()
			addrs = append(addrs, l.Addr().String())
		}
	}
	return addrs
}

// packVia round-trips PackShards' output through the on-disk encoding, so
// every fleet test also exercises what a worker actually loads.
func packVia(t testing.TB, g *graph.Digraph, strat partition.Strategy, seed uint64, shards int) ([]*graph.ShardFile, *graph.Manifest) {
	t.Helper()
	files, man, err := PackShards(g, strat, seed, shards)
	if err != nil {
		t.Fatal(err)
	}
	for i, sf := range files {
		var buf bytes.Buffer
		if err := graph.WriteShard(&buf, sf); err != nil {
			t.Fatal(err)
		}
		rt, err := graph.ReadShard(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sf, rt) {
			t.Fatalf("shard %d did not survive the disk round trip", i)
		}
		files[i] = rt
		man.Files[i] = fmt.Sprintf("test.sgr.%d", i)
	}
	var mb bytes.Buffer
	if err := graph.WriteManifest(&mb, man); err != nil {
		t.Fatal(err)
	}
	rt, err := graph.ReadManifest(bytes.NewReader(mb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(man, rt) {
		t.Fatal("manifest did not survive the disk round trip")
	}
	return files, rt
}

// TestFleetRoutingSelectivity pins the routing guarantee: a query whose
// frontier closure holds edges on k of N shards contacts exactly those
// replica groups — the untouched shards' workers receive not a single frame,
// asserted on the wire counters of the standing connections.
func TestFleetRoutingSelectivity(t *testing.T) {
	// Vertex 0→1 is an isolated two-vertex component: the closure of source 0
	// is {0,1} and holds exactly one edge, so exactly one shard is touched.
	// The dense component on [10,60) keeps every shard non-empty.
	var edges []graph.Edge
	edges = append(edges, graph.Edge{Src: 0, Dst: 1})
	for u := 10; u < 60; u++ {
		for d := 1; d <= 5; d++ {
			v := 10 + (u-10+d*7)%50
			if v != u {
				edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)})
			}
		}
	}
	g, err := graph.FromEdges(60, edges)
	if err != nil {
		t.Fatal(err)
	}

	const shards, reps, seed = 4, 2, 9
	f, err := OpenFleet(g, FleetOptions{InProc: shards, Replicas: reps, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, Seed: 3, Sources: []graph.VertexID{0}}

	// The expected touched set, derived independently from the strategy and
	// the closure definition.
	frontier, err := core.NewFrontier(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := partition.HashEdge{Seed: seed}.Partition(g, shards)
	if err != nil {
		t.Fatal(err)
	}
	wantTouched := make([]bool, shards)
	{
		i := 0
		g.ForEachEdge(func(u, v graph.VertexID) {
			if frontier.InTrunc(u) {
				wantTouched[assign.EdgeTo[i]] = true
			}
			i++
		})
	}
	nTouched := 0
	for _, tt := range wantTouched {
		if tt {
			nTouched++
		}
	}
	if nTouched != 1 {
		t.Fatalf("test graph no longer selective: closure touches %d of %d shards", nTouched, shards)
	}

	before := make([]wire.Counters, len(f.conns))
	for i, c := range f.conns {
		before[i] = c.Counters()
	}
	got, st, err := f.Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != nTouched*reps {
		t.Errorf("st.Workers = %d, want %d (touched groups only)", st.Workers, nTouched*reps)
	}
	for i, c := range f.conns {
		d := c.Counters().Sub(before[i])
		traffic := d.BytesIn + d.BytesOut + d.MsgsIn + d.MsgsOut
		if wantTouched[i/reps] && traffic == 0 {
			t.Errorf("conn %d (touched shard %d): no traffic", i, i/reps)
		}
		if !wantTouched[i/reps] && traffic != 0 {
			t.Errorf("conn %d (untouched shard %d): %d bytes / %d msgs crossed", i, i/reps, d.BytesIn+d.BytesOut, d.MsgsIn+d.MsgsOut)
		}
	}

	full, err := core.ReferenceSnaple(g, core.Config{Score: mustScore(t, "linearSum"), K: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := filterToSources(full, cfg.Sources); !reflect.DeepEqual(want, got) {
		diffPredictions(t, want, got)
	}
}

// TestFleetZeroShipAfterAttach pins the acceptance criterion: once every
// worker holds its shard — pinned in memory, or shipped once at open to plain
// workers — a query's pre-superstep traffic is the fingerprint handshake (plus
// sparse closure roles when scoped), never partition bytes: constant across
// repeats, and below the size of even one partition.
func TestFleetZeroShipAfterAttach(t *testing.T) {
	g := testGraph(t, 300, 7)
	const shards, seed = 3, 9
	dep, err := cut(g, partition.HashEdge{Seed: seed}, seed, shards)
	if err != nil {
		t.Fatal(err)
	}
	// The columns of the smallest partition, at their wire widths: what
	// shipping even one of them again would cost at the very least.
	onePartition := int64(1) << 62
	for _, p := range dep.Shards {
		onePartition = min(onePartition, int64(10*len(p.Locals)+8*len(p.EdgeSrc)))
	}

	for _, tc := range []struct {
		name string
		o    FleetOptions
	}{
		{"in-process", FleetOptions{InProc: shards, Seed: seed}},
		{"shipped", FleetOptions{Addrs: workerPool(t, shards), Seed: seed}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := OpenFleet(g, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			full := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 4, ThrGamma: 10, Seed: 42}
			_, st1, err := f.Predict(g, full)
			if err != nil {
				t.Fatal(err)
			}
			_, st2, err := f.Predict(g, full)
			if err != nil {
				t.Fatal(err)
			}
			// An unscoped attach is a fixed-size frame per connection.
			if bound := int64(512 * st1.Workers); st1.ShipBytes == 0 || st1.ShipBytes > bound {
				t.Errorf("full-run attach traffic %d bytes, want (0, %d]", st1.ShipBytes, bound)
			}
			if st1.ShipBytes != st2.ShipBytes {
				t.Errorf("attach traffic not constant across repeats: %d then %d", st1.ShipBytes, st2.ShipBytes)
			}

			scoped := full
			scoped.Sources = []graph.VertexID{17}
			_, st3, err := f.Predict(g, scoped)
			if err != nil {
				t.Fatal(err)
			}
			_, st4, err := f.Predict(g, scoped)
			if err != nil {
				t.Fatal(err)
			}
			if st3.ShipBytes == 0 || st3.ShipBytes >= onePartition {
				t.Errorf("scoped attach traffic %d bytes, want (0, %d) — partition bytes crossed?", st3.ShipBytes, onePartition)
			}
			if st3.ShipBytes != st4.ShipBytes {
				t.Errorf("scoped attach traffic not constant across repeats: %d then %d", st3.ShipBytes, st4.ShipBytes)
			}
		})
	}
}

// restartablePool serves n plain loopback workers like workerPool and returns
// a kill switch that severs worker i's live connection from the worker's side
// — what a crash and restart on the same port looks like to a coordinator:
// the shard shipped over that connection is gone, the address answers again.
func restartablePool(t *testing.T, n int) (addrs []string, kill func(i int)) {
	t.Helper()
	var mu sync.Mutex
	live := make([]net.Conn, n)
	addrs = make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				mu.Lock()
				live[i] = c
				mu.Unlock()
				_ = wire.ServeConn(c)
			}
		}()
		addrs[i] = l.Addr().String()
	}
	return addrs, func(i int) {
		mu.Lock()
		defer mu.Unlock()
		live[i].Close()
	}
}

// TestFleetReshipsAfterWorkerRestart: a plain worker holds its shard only as
// long as its connection lives. Killing one between queries costs the next
// query a failover; the one after reconnects, ships the shard again and is
// back at full strength. Losing a whole replica group fails exactly one query
// with ErrPartitionLost, and the next one re-ships to both and recovers.
// Every answer matches Serial.
func TestFleetReshipsAfterWorkerRestart(t *testing.T) {
	g := testGraph(t, 200, 7)
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 4, ThrGamma: 10, Seed: 42}
	want, _, err := Serial{}.Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addrs, kill := restartablePool(t, 4)
	f, err := OpenFleet(g, FleetOptions{Addrs: addrs, Replicas: 2, Seed: 5, StepTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shipped := func(i int) int64 { return f.conns[i].Counters().BytesOut }
	partBytes := func(i int) int64 { return int64(8 * len(f.dep.Shards[i/2].EdgeSrc)) }
	query := func(wantDead int) {
		t.Helper()
		got, st, err := f.Predict(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			diffPredictions(t, want, got)
		}
		if st.WorkersDead != wantDead {
			t.Errorf("WorkersDead = %d, want %d", st.WorkersDead, wantDead)
		}
	}
	query(0)

	kill(1)
	query(1) // shard 0 fails over to worker 0
	query(0) // worker 1 is redialed and shipped shard 0 again
	if got := shipped(1); got < partBytes(1) {
		t.Errorf("reconnected worker was sent %d bytes, less than its partition's %d — not re-shipped?", got, partBytes(1))
	}

	kill(2)
	kill(3)
	if _, _, err := f.Predict(g, cfg); !errors.Is(err, ErrPartitionLost) {
		t.Fatalf("err = %v, want ErrPartitionLost with shard 1's whole group gone", err)
	}
	query(0)
	if cum := f.Stats(); cum.WorkersDead != 3 {
		t.Errorf("cumulative WorkersDead = %d, want 3", cum.WorkersDead)
	}
}

// TestFleetManifestMismatch pins the typed rejection on both layers: a
// manifest that does not describe the graph fails at Open, and resident
// workers packed from a different graph are refused with ErrManifestMismatch
// during the attach handshake.
func TestFleetManifestMismatch(t *testing.T) {
	g1 := testGraph(t, 120, 2)
	g2 := testGraph(t, 120, 3) // same size, different edges

	files, man := packVia(t, g1, nil, 2, 2)

	t.Run("manifest-vs-graph", func(t *testing.T) {
		_, err := OpenFleet(g2, FleetOptions{Manifest: man})
		if !errors.Is(err, ErrManifestMismatch) {
			t.Fatalf("err = %v, want ErrManifestMismatch", err)
		}
	})
	t.Run("worker-vs-coordinator", func(t *testing.T) {
		// Workers resident for g1's shards, coordinator opened over g2 with
		// g2's own manifest (same cut parameters): the fingerprints differ and
		// every worker must refuse the attach.
		_, man2 := packVia(t, g2, nil, 2, 2)
		addrs := serveResident(t, files, 1)
		_, err := OpenFleet(g2, FleetOptions{Addrs: addrs, Manifest: man2})
		if !errors.Is(err, ErrManifestMismatch) {
			t.Fatalf("err = %v, want ErrManifestMismatch", err)
		}
	})
	t.Run("no-manifest", func(t *testing.T) {
		// Without a manifest the coordinator takes the workers for plain ones
		// and ships; a worker that pinned a packed shard refuses, pointing at
		// the manifest, instead of being silently overwritten.
		addrs := serveResident(t, files, 1)
		_, err := OpenFleet(g1, FleetOptions{Addrs: addrs, Seed: man.Seed})
		if err == nil || !strings.Contains(err.Error(), "manifest") {
			t.Fatalf("err = %v, want the workers to refuse the ship and name the manifest", err)
		}
	})
	t.Run("swapped-shard-slots", func(t *testing.T) {
		// The right workers in the wrong slots: each refuses an attach that
		// names the other's shard.
		addrs := serveResident(t, files, 1)
		_, err := OpenFleet(g1, FleetOptions{Addrs: []string{addrs[1], addrs[0]}, Manifest: man})
		if err == nil {
			t.Fatal("swapped shard slots accepted")
		}
	})
}

// TestFleetFailover: killing a replica's worker mid-standing leaves the
// fleet serving — the next query fails over to the survivor and the one
// after redials nothing that is not needed.
func TestFleetFailover(t *testing.T) {
	leakcheck.Check(t)
	g := testGraph(t, 150, 11)
	f, err := OpenFleet(g, FleetOptions{InProc: 2, Replicas: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 8, ThrGamma: 10, Seed: 5}
	want, err := core.ReferenceSnaple(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := f.Predict(g, cfg); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(want, got) {
		diffPredictions(t, want, got)
	}

	// Cut shard 0's first replica out from under the fleet.
	f.conns[0].Close()
	got, st, err := f.Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		diffPredictions(t, want, got)
	}
	if st.WorkersDead == 0 {
		t.Errorf("expected a death to be recorded: %+v", st)
	}

	// The dead connection was swept; the next query redials it and recovers
	// full strength (the in-process listener is still up).
	got, st, err = f.Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		diffPredictions(t, want, got)
	}
	if st.WorkersDead != 0 {
		t.Errorf("death carried into the recovered run: %+v", st)
	}
	if cum := f.Stats(); cum.WorkersDead == 0 {
		t.Errorf("cumulative stats lost the death: %+v", cum)
	}
}

// TestFleetCoordinatorsShareResidentWorkers is the immutability pin for a
// worker's shard: two coordinators hold standing connections to the same
// resident workers and run overlapping scoped queries at once, so every
// session on both connections reads the one pinned graph.ShardFile
// concurrently. Nothing about that shard may be written after it is validated
// (-race watches this test), and every answer is Serial's, bit for bit.
func TestFleetCoordinatorsShareResidentWorkers(t *testing.T) {
	leakcheck.Check(t)
	g := testGraph(t, 300, 7)
	files, man := packVia(t, g, nil, 11, 2)
	addrs := serveResident(t, files, 1)

	base := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 4, ThrGamma: 10, Seed: 42}
	full, _, err := Serial{}.Predict(g, base)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := OpenFleet(g, FleetOptions{Addrs: addrs, Manifest: man})
			if err != nil {
				t.Errorf("coordinator %d: %v", c, err)
				return
			}
			defer f.Close()
			for round := 0; round < 4; round++ {
				for _, name := range eqScopes[1:6] { // single, hub, duplicates, random25, all
					cfg := base
					cfg.Sources, _ = eqScopeSources(name, eqGraph{core: g.NumVertices()})
					got, _, err := f.Predict(g, cfg)
					if err != nil {
						t.Errorf("coordinator %d, %s: %v", c, name, err)
						return
					}
					if !reflect.DeepEqual(filterToSources(full, cfg.Sources), got) {
						t.Errorf("coordinator %d, %s: scoped run over the shared worker diverges from Serial", c, name)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestAttachDoesNoPerShardWork pins the attach half of "a query costs its
// closure": through a resident worker's real attach path — frame decode,
// fingerprint check, session build, Ready — an empty scoped attach allocates
// the same objects and the same bytes on a shard and on the same cut of a
// graph ten times the size. A scoped session's columns are sized by its
// entries, the connection's streaming buffers are inherited from the previous
// session, and nothing is validated, indexed or tabulated per attach: the
// shard was checked once, when the worker pinned it, and its sorted columns
// are the index.
func TestAttachDoesNoPerShardWork(t *testing.T) {
	type cost struct{ objects, bytes float64 }
	attachCost := func(n int) cost {
		g := testGraph(t, n, 7)
		files, man := packVia(t, g, nil, 11, 2)
		c, err := wire.DialWith(serveResident(t, files[:1], 1)[0], wire.DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		attach := &wire.Msg{
			Kind: wire.KindAttach, Version: wire.ProtocolVersion, Job: handshakeJob,
			Attach: wire.AttachSpec{Fingerprint: man.Fingerprint, Shard: 0, Shards: 2, Scoped: true},
		}
		once := func() {
			if err := sendAwaitReady(c, attach); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 20
		objects := testing.AllocsPerRun(runs, once)
		bytes := allocatedBy(func() {
			for range runs {
				once()
			}
		})
		return cost{objects, float64(bytes) / runs}
	}
	small, big := attachCost(300), attachCost(3000)
	t.Logf("per empty scoped attach: %.0f objects / %.0f B on the small shard, %.0f / %.0f B on the 10x one",
		small.objects, small.bytes, big.objects, big.bytes)
	if big.objects-small.objects > 2 || small.objects-big.objects > 2 {
		t.Errorf("an attach allocates %.0f objects on a shard and %.0f on one 10x the size: per-shard work crept into the attach path", small.objects, big.objects)
	}
	if big.bytes > small.bytes+256 {
		t.Errorf("an attach allocates %.0f B on a shard and %.0f B on one 10x the size: a column sized by the shard crept into the attach path", small.bytes, big.bytes)
	}
}

// TestScopedSessionTracksClosure is the worker's O(closure) pin, the fleet
// twin of TestScopedAllocationTracksClosure: the same 8-id query through a
// resident 2-shard fleet over a graph G, and over G plus a disjoint component
// ten times its size — which grows every shard's locals and edges but not the
// query's closure — allocates about the same bytes on the real path, attach
// through supersteps to collect. The measure covers the whole process: both
// in-process workers and the coordinator, whose routing and result are
// closure-sized too.
func TestScopedSessionTracksClosure(t *testing.T) {
	const n = 5000
	powerLaw := func(n int, edges int64, seed uint64) *graph.Digraph {
		stream, err := gen.NewPowerLawStream(n, edges, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		g, err := stream.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := powerLaw(n, 5*n, 3)
	other := powerLaw(10*n, 50*n, 4)
	b := graph.NewBuilder(11 * n)
	g.ForEachEdge(b.AddEdge)
	other.ForEachEdge(func(u, v graph.VertexID) { b.AddEdge(u+n, v+n) })
	big, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 10, KLocal: 8, ThrGamma: 50, Seed: 42,
		Sources: []graph.VertexID{17, 230, 999, 1500, 2222, 3001, 4096, 4999}}
	type run struct {
		bytes  uint64
		rows   core.ScopedPredictions
		st     Stats
		locals int
	}
	query := func(g graph.View) run {
		dep, err := cut(g, partition.HashEdge{Seed: 9}, 9, 2) // the cut the fleet makes
		if err != nil {
			t.Fatal(err)
		}
		var r run
		for _, sf := range dep.Shards {
			r.locals += len(sf.Locals)
		}
		f, err := OpenFleet(g, FleetOptions{InProc: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		r.bytes = allocatedBy(func() {
			if r.rows, r.st, err = f.PredictScoped(context.Background(), g, cfg); err != nil {
				t.Fatal(err)
			}
		})
		return r
	}
	onG, onBig := query(g), query(big)
	t.Logf("closure %d vertices: %d B over %d shard locals, %d B over %d",
		onG.st.FrontierVertices, onG.bytes, onG.locals, onBig.bytes, onBig.locals)
	if onBig.locals < 5*onG.locals {
		t.Fatalf("the disjoint component grew the shards' locals only %d -> %d", onG.locals, onBig.locals)
	}
	if !reflect.DeepEqual(onG.rows, onBig.rows) || onG.st.FrontierVertices != onBig.st.FrontierVertices ||
		onG.st.CrossBytes != onBig.st.CrossBytes {
		t.Fatalf("the disjoint component changed the query: %+v / %+v", onG.st, onBig.st)
	}
	if lo, hi := min(onG.bytes, onBig.bytes), max(onG.bytes, onBig.bytes); float64(hi) > 1.5*float64(lo) {
		t.Errorf("a scoped fleet query allocated %d B over %d shard locals and %d B over %d: not closure-sized",
			onG.bytes, onG.locals, onBig.bytes, onBig.locals)
	}
}

// TestCutEmitsValidShards pins the trust an in-process fleet places in its
// own cut: those shards reach their workers without passing through a loader
// or a ship, so nothing validates them at run time — every strategy, over a
// plain CSR and over a mutated overlay, must emit shards the one validator
// accepts (sorted Locals, sorted source runs), stamped with the fleet
// identity.
func TestCutEmitsValidShards(t *testing.T) {
	g := testGraph(t, 200, 7)
	for name, view := range map[string]graph.View{"csr": g, "delta": mutatedView(t, g)} {
		for _, strat := range []partition.Strategy{
			partition.HashEdge{Seed: 9}, partition.HashSource{Seed: 9}, partition.Greedy{},
		} {
			const shards = 3
			dep, err := cut(view, strat, 9, shards)
			if err != nil {
				t.Fatal(err)
			}
			edges := 0
			for p, sf := range dep.Shards {
				if err := sf.Validate(); err != nil {
					t.Errorf("%s/%s: shard %d: %v", name, strat.Name(), p, err)
				}
				if sf.Fingerprint != dep.fingerprint || sf.Shard != p || sf.Shards != shards || sf.NumVertices != view.NumVertices() {
					t.Errorf("%s/%s: shard %d carries the wrong fleet identity: %+v", name, strat.Name(), p, sf)
				}
				edges += len(sf.EdgeSrc)
			}
			if edges != view.NumEdges() {
				t.Errorf("%s/%s: shards hold %d edges of %d", name, strat.Name(), edges, view.NumEdges())
			}
		}
	}
}

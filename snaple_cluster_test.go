package snaple

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"snaple/internal/engine"
	"snaple/internal/graph"
	"snaple/internal/wire"
)

// TestClusterResident drives the persistent API end to end on an in-process
// resident fleet: open once, answer many scoped queries bit-identically to
// the one-shot facade, accumulate stats, close idempotently.
func TestClusterResident(t *testing.T) {
	g := facadeGraph(t)
	opts := Options{Score: "linearSum", KLocal: 10, Seed: 1, Engine: "dist", Workers: 3}
	full, err := Predict(g, Options{Score: "linearSum", KLocal: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	c, err := OpenCluster(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	preds, st, err := c.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(preds, full) {
		t.Fatal("resident full run differs from the local backend")
	}
	if st.Engine != "fleet" {
		t.Errorf("engine = %q", st.Engine)
	}

	for _, sources := range [][]VertexID{{3}, {77, 201}, {399, 399, 0}} {
		preds, _, err := c.PredictFor(sources)
		if err != nil {
			t.Fatal(err)
		}
		for v, row := range preds {
			isSource := false
			for _, s := range sources {
				if int(s) == v {
					isSource = true
				}
			}
			if isSource && !reflect.DeepEqual(row, full[v]) {
				t.Fatalf("source %d differs from the full run", v)
			}
			if !isSource && row != nil {
				t.Fatalf("non-source %d has predictions", v)
			}
		}
	}

	if st := c.Stats(); st.Engine != "fleet" || st.Workers != 3 {
		t.Errorf("cluster stats = %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if _, _, err := c.Predict(); err == nil {
		t.Error("predict on a closed cluster succeeded")
	}
}

// TestClusterManifest exercises the packed-fleet path through the facade:
// shards packed to disk, resident workers pinning them, a Cluster opened
// with the manifest path — and the typed mismatch when the graph disagrees.
func TestClusterManifest(t *testing.T) {
	g := facadeGraph(t)
	files, man, err := engine.PackShards(g, nil, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var addrs []string
	for i, sf := range files {
		p := filepath.Join(dir, "g.sgr."+string(rune('0'+i)))
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.WriteShard(f, sf); err != nil {
			t.Fatal(err)
		}
		f.Close()
		man.Files[i] = filepath.Base(p)

		// A resident worker per shard, as snaple-worker -shard would serve it.
		rf, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := graph.ReadShard(rf)
		rf.Close()
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go func() { _ = wire.ServeWith(l, nil, wire.ServeOptions{Resident: loaded}) }()
		addrs = append(addrs, l.Addr().String())
	}
	manPath := filepath.Join(dir, "g.sgr.manifest")
	mf, err := os.Create(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteManifest(mf, man); err != nil {
		t.Fatal(err)
	}
	mf.Close()

	opts := Options{Score: "linearSum", KLocal: 10, Seed: 1, Engine: "dist", Manifest: manPath, WorkerAddrs: addrs}
	c, err := OpenCluster(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	full, err := Predict(g, Options{Score: "linearSum", KLocal: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	preds, _, err := c.PredictFor([]VertexID{3, 77})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(preds[3], full[3]) || !reflect.DeepEqual(preds[77], full[77]) {
		t.Fatal("manifest fleet differs from the local backend")
	}

	// The same manifest against a different graph must be refused with the
	// typed error before any superstep runs.
	g2, err := GenerateCommunity(CommunityGraph{N: 400, Communities: 8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, err = OpenCluster(g2, opts)
	if !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("err = %v, want ErrManifestMismatch", err)
	}
}

// TestClusterPlainWorkers: a Cluster over plain workers (WorkerAddrs, no
// manifest) pays for the cut and the shipping at OpenCluster, as its doc
// promises — a query's pre-superstep traffic is smaller than even one
// partition — and serves any view it is opened with, an overlay included.
func TestClusterPlainWorkers(t *testing.T) {
	g := facadeGraph(t)
	view := g.WithoutEdges([]Edge{{Src: 3, Dst: g.OutNeighbors(3)[0]}}) // a dirty overlay, as an evaluation split is
	const workers, seed = 3, 11
	var addrs []string
	for range workers {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go func() { _ = wire.Serve(l, nil) }()
		addrs = append(addrs, l.Addr().String())
	}
	files, _, err := engine.PackShards(view, nil, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	onePartition := int64(1) << 62
	for _, sf := range files {
		onePartition = min(onePartition, int64(8*len(sf.EdgeSrc)))
	}

	opts := Options{Score: "linearSum", KLocal: 10, Seed: seed, Engine: "dist", WorkerAddrs: addrs}
	c, err := OpenCluster(view, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	full, err := Predict(view, Options{Score: "linearSum", KLocal: 10, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for i, sources := range [][]VertexID{{3, 77}, {3, 77}, nil} {
		preds, st, err := c.PredictFor(sources)
		if err != nil {
			t.Fatal(err)
		}
		if sources == nil {
			if !reflect.DeepEqual(preds, full) {
				t.Fatal("full run over plain workers differs from the local backend")
			}
		} else if !reflect.DeepEqual(preds[3], full[3]) || !reflect.DeepEqual(preds[77], full[77]) {
			t.Fatal("scoped run over plain workers differs from the local backend")
		}
		if st.ShipBytes <= 0 || st.ShipBytes >= onePartition {
			t.Errorf("query %d: %d bytes crossed before the supersteps, want (0, %d) — a partition re-shipped?",
				i, st.ShipBytes, onePartition)
		}
	}
	if st := c.Stats(); st.Engine != "fleet" || st.Workers != workers {
		t.Errorf("cluster stats = %+v", st)
	}
}

func TestOpenClusterErrors(t *testing.T) {
	g := facadeGraph(t)
	if _, err := OpenCluster(nil, Options{Engine: "dist"}); err == nil {
		t.Error("nil graph: accepted")
	}
	cases := map[string]Options{
		"empty-engine":   {},
		"bogus-engine":   {Engine: "serial"},
		"bogus-score":    {Engine: "sim", Score: "bogus"},
		"bogus-paths":    {Engine: "dist", Paths: 5},
		"bogus-nodetype": {Engine: "sim", NodeType: "bogus"},
		"bogus-strategy": {Engine: "dist", Strategy: "bogus"},
		"bad-manifest":   {Engine: "dist", Manifest: "/nonexistent/path.manifest"},
	}
	for name, o := range cases {
		if _, err := OpenCluster(g, o); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

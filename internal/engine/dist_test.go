package engine

import (
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"snaple/internal/core"
	"snaple/internal/graph"
	"snaple/internal/wire"
)

// workerAddrsEnv lets CI point the equivalence tests at externally spawned
// snaple-worker processes (the cluster-smoke job) instead of the in-process
// loopback fleet. The value is a comma-separated address list.
const workerAddrsEnv = "SNAPLE_WORKER_ADDRS"

// workerPool provides n worker addresses: external processes when
// workerAddrsEnv is set (cycled when it lists fewer: a plain worker serves
// each connection over its own shipped shard), otherwise an in-process
// loopback fleet (real TCP and real frames, torn down with the test).
func workerPool(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	if env := os.Getenv(workerAddrsEnv); env != "" {
		external := strings.Split(env, ",")
		for i := range addrs {
			addrs[i] = external[i%len(external)]
		}
		return addrs
	}
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go func() { _ = wire.Serve(l, nil) }()
		addrs[i] = l.Addr().String()
	}
	return addrs
}

// TestDistRejectsCustomScore: the config is validated before any dial — a
// hand-assembled ScoreSpec cannot cross the wire and must fail fast, as must
// a source outside the graph.
func TestDistRejectsCustomScore(t *testing.T) {
	g := testGraph(t, 20, 1)
	cfg := core.Config{Score: core.ScoreSpec{
		Name: "custom", Sim: core.Jaccard{}, Comb: core.SumComb(), Agg: core.AggSum(),
	}, K: 5}
	// No workers exist at this address; reaching the dial would hang/fail
	// differently than the wanted validation error.
	_, _, err := Dist{Addrs: []string{"127.0.0.1:1"}}.Predict(g, cfg)
	if err == nil || !strings.Contains(err.Error(), "not shippable") {
		t.Fatalf("err = %v, want shippability failure", err)
	}
	cfg = core.Config{Score: mustScore(t, "linearSum"), K: 5, Sources: []graph.VertexID{20}}
	_, _, err = Dist{Addrs: []string{"127.0.0.1:1"}}.Predict(g, cfg)
	if err == nil || strings.Contains(err.Error(), "127.0.0.1:1") {
		t.Fatalf("err = %v, want the out-of-range source rejected before the dial", err)
	}
}

// TestDistWireCompression pins that per-frame compression shrinks the
// measured traffic: partial and state records of every step cross the codec.
// The harness's dist-zip rows hold the compressed runs' predictions.
func TestDistWireCompression(t *testing.T) {
	g := testGraph(t, 200, 7)
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 3,
		ThrGamma: 10, Policy: core.SelectRnd, Seed: 42}
	var cross [2]int64
	for i, compress := range []bool{false, true} {
		_, st, err := Dist{InProc: 3, Seed: 42, Compress: compress}.Predict(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cross[i] = st.CrossBytes
	}
	if cross[1] >= cross[0] {
		t.Errorf("compression grew traffic: %d -> %d bytes", cross[0], cross[1])
	}
}

// TestPlainWorkerServesDuplicateAddrs: a plain worker serves its
// connections concurrently, each over the shard shipped on it, so a one-shot
// Dist and a standing fleet that list one worker twice hold two of its shards
// at once and still answer Serial's predictions.
func TestPlainWorkerServesDuplicateAddrs(t *testing.T) {
	g := testGraph(t, 150, 11)
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 4, ThrGamma: 10, Seed: 1}
	want, _, err := Serial{}.Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addrs := workerPool(t, 1)
	twice := []string{addrs[0], addrs[0]}
	f, err := OpenFleet(g, FleetOptions{Addrs: twice, StepTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, be := range []Backend{Dist{Addrs: twice, StepTimeout: 30 * time.Second}, f} {
		got, st, err := be.Predict(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", be.Name(), err)
		}
		if st.Workers != 2 {
			t.Errorf("%s: %d workers, want 2", be.Name(), st.Workers)
		}
		if !reflect.DeepEqual(want, got) {
			diffPredictions(t, want, got)
		}
	}
}

// TestFleetShape pins the one rule from (connection mode, worker count,
// Replicas) to the fleet's dimensions, for Dist and Fleet alike: Addrs beat
// Spawn beat in-process; W external workers form W/R groups of R replicas, R
// clamped to W and the remainder unused; an in-process fleet has InProc shards
// of R workers each; a manifest pins the shard count and external workers must
// fill it exactly.
func TestFleetShape(t *testing.T) {
	addrs := func(n int) []string { return make([]string, n) }
	man := &graph.Manifest{Shards: 3}
	cases := []struct {
		o            FleetOptions
		shards, reps int
		wantErr      bool
	}{
		{o: FleetOptions{}, shards: 2, reps: 1},
		{o: FleetOptions{InProc: 3}, shards: 3, reps: 1},
		{o: FleetOptions{InProc: 3, Replicas: 2}, shards: 3, reps: 2},
		{o: FleetOptions{Spawn: 5}, shards: 5, reps: 1},
		{o: FleetOptions{Addrs: addrs(2), Spawn: 5, InProc: 9}, shards: 2, reps: 1},
		{o: FleetOptions{Addrs: addrs(4), Replicas: 2}, shards: 2, reps: 2},
		{o: FleetOptions{Addrs: addrs(6), Replicas: 3}, shards: 2, reps: 3},
		{o: FleetOptions{Addrs: addrs(4), Replicas: 3}, shards: 1, reps: 3}, // the 4th worker is unused
		{o: FleetOptions{Spawn: 2, Replicas: 5}, shards: 1, reps: 2},        // clamped to the fleet size
		{o: FleetOptions{Manifest: man}, shards: 3, reps: 1},
		{o: FleetOptions{Manifest: man, Addrs: addrs(6), Replicas: 2}, shards: 3, reps: 2},
		{o: FleetOptions{Manifest: man, Addrs: addrs(5), Replicas: 2}, wantErr: true},
		{o: FleetOptions{Manifest: man, Addrs: addrs(4)}, wantErr: true},
	}
	for _, c := range cases {
		shards, reps, err := c.o.shape()
		if (err != nil) != c.wantErr || shards != c.shards || reps != c.reps {
			t.Errorf("shape(%+v) = %d x %d, %v; want %d x %d (error: %v)", c.o, shards, reps, err, c.shards, c.reps, c.wantErr)
		}
	}
}

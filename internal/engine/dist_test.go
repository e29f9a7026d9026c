package engine

import (
	"fmt"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"

	"snaple/internal/core"
	"snaple/internal/graph"
	"snaple/internal/partition"
	"snaple/internal/wire"
)

// workerAddrsEnv lets CI point the equivalence tests at externally spawned
// snaple-worker processes (the cluster-smoke job) instead of the in-process
// loopback fleet. The value is a comma-separated address list.
const workerAddrsEnv = "SNAPLE_WORKER_ADDRS"

// workerPool provides worker addresses for a test: external processes when
// workerAddrsEnv is set, otherwise an in-process loopback fleet (real TCP
// and real frames, torn down with the test).
func workerPool(t *testing.T, n int) []string {
	t.Helper()
	if env := os.Getenv(workerAddrsEnv); env != "" {
		addrs := strings.Split(env, ",")
		if len(addrs) < n {
			t.Skipf("%s provides %d workers, test wants %d", workerAddrsEnv, len(addrs), n)
		}
		return addrs[:n]
	}
	addrs := make([]string, n)
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

// TestDistMatchesReference is the dist backend's equivalence table: real
// worker processes (or their in-process stand-ins) over TCP must reproduce
// core.ReferenceSnaple bit for bit across scores, policies, sampling
// parameters, seeds and 1, 2 and 4 workers. The CI
// cluster-smoke job reruns it under -race against 3 externally spawned
// snaple-worker processes via SNAPLE_WORKER_ADDRS.
func TestDistMatchesReference(t *testing.T) {
	g := testGraph(t, 200, 7)

	type tc struct {
		score  string
		policy core.SelectionPolicy
		thr    int
		klocal int
		seed   uint64
	}
	cases := []tc{
		// Policy × sampling cross for the default score.
		{"linearSum", core.SelectMax, core.Unlimited, core.Unlimited, 1},
		{"linearSum", core.SelectMax, 10, 4, 42},
		{"linearSum", core.SelectMin, 10, 4, 42},
		{"linearSum", core.SelectRnd, 10, 4, 42},
		{"linearSum", core.SelectRnd, core.Unlimited, 4, 1},
		{"linearSum", core.SelectMax, 10, 1, 42},
		{"geomSum", core.SelectRnd, core.Unlimited, 3, 1},
		// Every aggregator family and the identity-aware PPR similarity.
		{"PPR", core.SelectMax, 10, 4, 42},
		{"counter", core.SelectMax, 10, 4, 42},
		{"geomMean", core.SelectMax, 10, 4, 42},
		{"euclGeom", core.SelectMax, 10, 4, 42},
	}

	workerCounts := []int{1, 2, 4}
	maxWorkers := 4
	if env := os.Getenv(workerAddrsEnv); env != "" {
		// An external fleet has a fixed size; exercise every prefix of it.
		n := len(strings.Split(env, ","))
		workerCounts = nil
		for _, w := range []int{1, 2, 4} {
			if w <= n {
				workerCounts = append(workerCounts, w)
			}
		}
		if len(workerCounts) == 0 || workerCounts[len(workerCounts)-1] != n {
			workerCounts = append(workerCounts, n)
		}
		maxWorkers = n
	}
	addrs := workerPool(t, maxWorkers)

	for _, c := range cases {
		cfg := core.Config{
			Score:    mustScore(t, c.score),
			K:        5,
			KLocal:   c.klocal,
			ThrGamma: c.thr,
			Policy:   c.policy,
			Seed:     c.seed,
		}
		want, err := core.ReferenceSnaple(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range workerCounts {
			name := fmt.Sprintf("%s/%s/thr=%d/klocal=%d/seed=%d/workers=%d",
				c.score, c.policy, c.thr, c.klocal, c.seed, workers)
			t.Run(name, func(t *testing.T) {
				got, st, err := Dist{Addrs: addrs[:workers], Seed: c.seed}.Predict(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if st.Engine != "dist" || st.Workers != workers {
					t.Errorf("stats = %+v", st)
				}
				if !reflect.DeepEqual(want, got) {
					diffPredictions(t, want, got)
				}
			})
		}
	}
}

// TestDistStrategies pins equivalence across vertex-cut strategies: the cut
// decides replication and traffic, never results.
func TestDistStrategies(t *testing.T) {
	g := testGraph(t, 150, 11)
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 8, ThrGamma: 10, Seed: 5}
	want, err := core.ReferenceSnaple(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addrs := workerPool(t, 3)
	for _, strat := range []partition.Strategy{
		partition.HashEdge{Seed: 9}, partition.HashSource{Seed: 9}, partition.Greedy{},
	} {
		t.Run(strat.Name(), func(t *testing.T) {
			got, st, err := Dist{Addrs: addrs, Strategy: strat, Seed: 9}.Predict(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				diffPredictions(t, want, got)
			}
			if st.ReplicationFactor < 1 {
				t.Errorf("replication factor %v", st.ReplicationFactor)
			}
		})
	}
}

// TestDistMeasuredStats checks the wire measurements: a multi-worker run
// must report real traffic, and Predict must never leave the counters zero
// when partials actually crossed partitions.
func TestDistMeasuredStats(t *testing.T) {
	g := testGraph(t, 200, 3)
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 8, ThrGamma: 10, Seed: 5}
	addrs := workerPool(t, 3)
	_, st, err := Dist{Addrs: addrs, Seed: 9}.Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.CrossBytes == 0 || st.CrossMsgs == 0 {
		t.Errorf("measured traffic missing: %+v", st)
	}
	if st.ReplicationFactor < 1 || st.MemPeakBytes == 0 {
		t.Errorf("deployment stats missing: %+v", st)
	}
	if st.WallSeconds <= 0 || st.EdgesPerSec <= 0 {
		t.Errorf("timing missing: %+v", st)
	}
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

// TestDistInProc covers the zero-config mode: the backend serves its own
// loopback workers and still matches the oracle.
func TestDistInProc(t *testing.T) {
	g := testGraph(t, 120, 2)
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 6, ThrGamma: 10, Seed: 3}
	want, err := core.ReferenceSnaple(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := Dist{InProc: 3, Seed: 3}.Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine != "dist" || st.Workers != 3 {
		t.Errorf("stats = %+v", st)
	}
	if !reflect.DeepEqual(want, got) {
		diffPredictions(t, want, got)
	}
}

// TestDistWireCompression pins result equivalence with per-frame compression
// on, and that it actually shrinks the measured traffic: partial and state
// records of every step cross the codec.
func TestDistWireCompression(t *testing.T) {
	g := testGraph(t, 200, 7)
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 3,
		ThrGamma: 10, Policy: core.SelectRnd, Seed: 42}
	want, err := core.ReferenceSnaple(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(d Dist) Stats {
		t.Helper()
		got, st, err := d.Predict(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			diffPredictions(t, want, got)
		}
		if st.CrossBytes == 0 || st.CrossMsgs == 0 {
			t.Errorf("no measured traffic: %+v", st)
		}
		return st
	}
	plain := check(Dist{InProc: 3, Seed: 42})
	zipped := check(Dist{InProc: 3, Seed: 42, Compress: true})
	if zipped.CrossBytes >= plain.CrossBytes {
		t.Errorf("compression grew traffic: %d -> %d bytes", plain.CrossBytes, zipped.CrossBytes)
	}
}

// TestDistRejectsDuplicateAddrs: dialing the same plain worker twice would
// deadlock its sequential session loop, so the coordinator refuses up front —
// for the one-shot run and the standing fleet alike.
func TestDistRejectsDuplicateAddrs(t *testing.T) {
	g := testGraph(t, 20, 1)
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, Seed: 1}
	addrs := workerPool(t, 1)
	_, _, err := Dist{Addrs: []string{addrs[0], addrs[0]}}.Predict(g, cfg)
	if err == nil || !strings.Contains(err.Error(), "duplicate worker address") {
		t.Fatalf("err = %v, want duplicate-address rejection", err)
	}
	_, err = OpenFleet(g, FleetOptions{Addrs: []string{addrs[0], addrs[0]}})
	if err == nil || !strings.Contains(err.Error(), "duplicate worker address") {
		t.Fatalf("OpenFleet err = %v, want duplicate-address rejection", err)
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

package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"snaple/internal/cluster"
	"snaple/internal/core"
	"snaple/internal/gen"
	"snaple/internal/graph"
	"snaple/internal/partition"
)

func communityGraph(t testing.TB, n int, seed uint64) *graph.Digraph {
	t.Helper()
	g, err := gen.Community(gen.CommunityConfig{N: n, Communities: 8}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func erdosRenyi(t testing.TB, n, m int, seed uint64) *graph.Digraph {
	t.Helper()
	g, err := gen.ErdosRenyi(n, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// typeISim is a simulated cluster of type-I nodes cut by hash-edge.
func typeISim(parts, nodes int, seed uint64) Sim {
	return Sim{Nodes: nodes, Spec: cluster.TypeI(), Partitions: parts, Strategy: partition.HashEdge{Seed: seed}}
}

// openSim opens a run of cfg's supersteps on s, masters elected with seed.
func openSim(t testing.TB, s Sim, g graph.View, cfg core.Config, seed uint64) *simRun {
	t.Helper()
	r, err := s.open(g, seed, func(sh *graph.ShardFile) (*core.DistPartition, error) {
		return core.NewDistPartition(cfg, sh)
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSimCostsGolden pins the sim backend's deterministic costs to values
// recorded while it still ran its own GAS step programs: Section 5's
// reproduction stands on what those priced per gathered edge, per shipped
// partial and per refreshed replica, so driving the fleet's scheduler
// instead may not move a byte. Every figure, the peak included, is pinned at
// each host worker count: within a phase every charge is positive, so the
// peak does not depend on how the partitions interleave. The klocal=4 rows,
// recorded later from the same scheduler, pin a tighter truncation: fewer
// relays per vertex, so less traffic and a lower peak.
func TestSimCostsGolden(t *testing.T) {
	g := communityGraph(t, 500, 91)
	sources := []graph.VertexID{0, 17, 123, 301}
	cases := []struct {
		klocal int
		scoped bool
		policy core.SelectionPolicy
		cross  int64
		msgs   int64
		mem    int64
	}{
		{6, false, core.SelectMax, 410016, 6052, 129664},
		{6, false, core.SelectRnd, 411376, 6050, 131056},
		{6, true, core.SelectMax, 102888, 3740, 19364},
		{6, true, core.SelectRnd, 102888, 3740, 19364},
		{4, false, core.SelectMax, 374316, 5976, 114480},
		{4, false, core.SelectRnd, 376700, 5992, 116664},
		{4, true, core.SelectMax, 102664, 3740, 19284},
		{4, true, core.SelectRnd, 102664, 3740, 19284},
	}
	const rfBits = 0x400fc28f5c28f5c3 // 3.97
	for _, tc := range cases {
		cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: tc.klocal, ThrGamma: 12,
			Policy: tc.policy, Seed: 3}
		if tc.scoped {
			cfg.Sources = sources
		}
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("klocal=%d/scoped=%v/policy=%v/workers=%d", tc.klocal, tc.scoped, tc.policy, workers), func(t *testing.T) {
				sim := typeISim(6, 3, 11)
				sim.Workers = workers
				_, st, err := sim.Predict(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if st.CrossBytes != tc.cross || st.CrossMsgs != tc.msgs {
					t.Errorf("cross = %d B / %d msgs, want %d / %d", st.CrossBytes, st.CrossMsgs, tc.cross, tc.msgs)
				}
				if got := math.Float64bits(st.ReplicationFactor); got != rfBits {
					t.Errorf("replication factor %v (%#x), want %#x", st.ReplicationFactor, got, uint64(rfBits))
				}
				if st.MemPeakBytes != tc.mem {
					t.Errorf("peak memory %d B, want %d", st.MemPeakBytes, tc.mem)
				}
			})
		}
	}
}

// TestBaselineExhaustsRestrictedMemory reproduces the Section 5.3 failure:
// with a tight per-node budget, BASELINE dies of memory exhaustion — with
// the costs up to the failing step reported — while SNAPLE completes on the
// same cluster.
func TestBaselineExhaustsRestrictedMemory(t *testing.T) {
	g := communityGraph(t, 1500, 61)
	// Calibrated between the two systems' peaks on this workload:
	// BASELINE needs ~3.7 MB per node, SNAPLE ~0.73 MB.
	sim := typeISim(4, 2, 5)
	sim.MemBudgetBytes = 1536 * 1024
	_, st, err := sim.PredictBaseline(g, 5)
	if !errors.Is(err, cluster.ErrMemoryExhausted) {
		t.Fatalf("baseline should exhaust memory, got %v", err)
	}
	if st.Engine != "sim" || st.MemPeakBytes <= sim.MemBudgetBytes {
		t.Errorf("exhausted run reports %+v, want its costs up to the overrun", st)
	}
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 20, ThrGamma: 200, Seed: 1}
	if _, _, err := sim.Predict(g, cfg); err != nil {
		t.Fatalf("SNAPLE should fit in the same budget, got %v", err)
	}
}

// TestSnapleCheaperThanBaseline: on identical deployments SNAPLE must move
// fewer bytes and peak lower than BASELINE — the paper's core claim.
func TestSnapleCheaperThanBaseline(t *testing.T) {
	g := communityGraph(t, 800, 71)
	sim := typeISim(6, 3, 3)
	_, snaple, err := sim.Predict(g, core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 20, ThrGamma: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, base, err := sim.PredictBaseline(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if snaple.CrossBytes >= base.CrossBytes {
		t.Errorf("SNAPLE moved %d cross-node bytes, BASELINE %d — expected SNAPLE lower",
			snaple.CrossBytes, base.CrossBytes)
	}
	if snaple.MemPeakBytes >= base.MemPeakBytes {
		t.Errorf("SNAPLE peaked at %d bytes, BASELINE %d — expected SNAPLE lower",
			snaple.MemPeakBytes, base.MemPeakBytes)
	}
}

// TestSimValidatesConfig: a bad config, a bad k and a bad deployment fail
// before any superstep, with no costs reported.
func TestSimValidatesConfig(t *testing.T) {
	g := communityGraph(t, 50, 81)
	sim := typeISim(2, 1, 0)
	if _, st, err := sim.Predict(g, core.Config{K: -1}); err == nil || st.Engine != "" {
		t.Errorf("invalid config: err %v, stats %+v", err, st)
	}
	if _, _, err := sim.PredictBaseline(g, 0); err == nil {
		t.Error("baseline k=0 accepted")
	}
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5}
	if _, _, err := (Sim{Nodes: -1}).Predict(g, cfg); err == nil {
		t.Error("negative node count accepted")
	}
	if _, _, err := sim.Predict(nil, cfg); err == nil {
		t.Error("nil graph accepted")
	}
}

// TestDegenerateGraphs: every backend that schedules Algorithm 2 — Local's
// passes, the sim's and the fleet's supersteps — must handle empty and
// near-empty graphs without panicking or predicting anything.
func TestDegenerateGraphs(t *testing.T) {
	cases := []struct {
		name  string
		build func() *graph.Digraph
	}{
		{"empty", func() *graph.Digraph { return graph.MustFromEdges(0, nil) }},
		{"isolated vertices", func() *graph.Digraph { return graph.MustFromEdges(5, nil) }},
		{"single edge", func() *graph.Digraph {
			return graph.MustFromEdges(2, []graph.Edge{{Src: 0, Dst: 1}})
		}},
		{"two-cycle", func() *graph.Digraph {
			return graph.MustFromEdges(2, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 5, Seed: 1}
			ref, err := core.ReferenceSnaple(g, cfg)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			for _, be := range []Backend{Local{Workers: 4}, Local{}, typeISim(2, 1, 0), Dist{InProc: 2}} {
				got, _, err := be.Predict(g, cfg)
				if err != nil {
					t.Fatalf("%s: %v", be.Name(), err)
				}
				if !reflect.DeepEqual(ref, got) {
					diffPredictions(t, ref, got)
				}
				// None of these graphs have any 2-hop candidate outside Γ ∪ {u}
				// — except the two-cycle, where 0→1→0 is excluded as self.
				for u, ps := range got {
					if ps != nil {
						t.Errorf("%s: vertex %d got predictions %v on a degenerate graph", be.Name(), u, ps)
					}
				}
			}
		})
	}
}

// TestBaselineDegenerate: same for the BASELINE pipeline.
func TestBaselineDegenerate(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{Src: 0, Dst: 1}})
	got, _, err := typeISim(2, 1, 0).PredictBaseline(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	for u, ps := range got {
		if len(ps) != 0 {
			t.Errorf("vertex %d got %v", u, ps)
		}
	}
}

// TestSimCrossNodeTrafficCharged: partials and refreshes between nodes are
// charged, and priced as network time.
func TestSimCrossNodeTrafficCharged(t *testing.T) {
	g := erdosRenyi(t, 100, 800, 4)
	r := openSim(t, typeISim(8, 4, 1), g, core.Config{Score: mustScore(t, "linearSum"), K: 5}, 7)
	before := r.cl.Snapshot()
	if err := r.step(core.DistTruncate); err != nil {
		t.Fatal(err)
	}
	if r.st.CrossBytes == 0 || r.st.CrossMsgs == 0 {
		t.Error("expected cross-node traffic on 8 partitions over 4 nodes")
	}
	if r.cl.NetSeconds(before, r.cl.Snapshot()) <= 0 {
		t.Error("expected positive simulated network time")
	}
	if r.st.ReplicationFactor <= 1 {
		t.Errorf("RF = %v, want > 1", r.st.ReplicationFactor)
	}
}

// TestSimMemoryExhaustion: an overrun is an error wrapping
// cluster.ErrMemoryExhausted, returned with the costs up to it.
func TestSimMemoryExhaustion(t *testing.T) {
	g := erdosRenyi(t, 200, 3000, 6)
	sim := typeISim(4, 2, 1)
	sim.MemBudgetBytes = 64 // hopeless
	pred, st, err := sim.Predict(g, core.Config{Score: mustScore(t, "linearSum"), K: 5})
	if !errors.Is(err, cluster.ErrMemoryExhausted) {
		t.Fatalf("want ErrMemoryExhausted, got %v", err)
	}
	if pred != nil || st.Engine != "sim" || st.MemPeakBytes <= 64 || st.ReplicationFactor <= 1 {
		t.Errorf("exhausted run: %d rows, stats %+v", len(pred), st)
	}
}

// TestSimReleasesGatherState: a step releases the gather state it charged,
// so identical steps never raise the peak.
func TestSimReleasesGatherState(t *testing.T) {
	g := erdosRenyi(t, 100, 700, 8)
	r := openSim(t, typeISim(2, 1, 1), g, core.Config{Score: mustScore(t, "linearSum"), K: 5}, 7)
	// Step 1 establishes the vertex state; step 2 is the first step whose
	// peak includes both resident vertex data and transient gather state.
	for range 2 {
		if err := r.step(core.DistTruncate); err != nil {
			t.Fatal(err)
		}
	}
	peakAfterTwo := r.st.MemPeakBytes
	for range 3 {
		if err := r.step(core.DistTruncate); err != nil {
			t.Fatal(err)
		}
	}
	if r.st.MemPeakBytes != peakAfterTwo {
		t.Errorf("peak grew across identical steps: %d -> %d", peakAfterTwo, r.st.MemPeakBytes)
	}
}

// TestSimTrafficConservation: bytes received equal bytes sent, per node,
// over a whole run.
func TestSimTrafficConservation(t *testing.T) {
	g := erdosRenyi(t, 90, 700, 12)
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 4}
	r := openSim(t, typeISim(6, 3, 1), g, cfg, 7)
	for _, step := range core.DistSteps() {
		if err := r.step(step); err != nil {
			t.Fatal(err)
		}
	}
	tr := r.cl.Snapshot()
	var in, out int64
	for n := range tr.NodeIn {
		in += tr.NodeIn[n]
		out += tr.NodeOut[n]
	}
	if in != out {
		t.Errorf("traffic not conserved: in=%d out=%d", in, out)
	}
	if in != tr.CrossBytes || in != r.st.CrossBytes {
		t.Errorf("per-node sums (%d) disagree with total cross bytes (%d, reported %d)", in, tr.CrossBytes, r.st.CrossBytes)
	}
}

// TestReplicationFactorMatchesPartitionStats: the sim's replication factor
// must equal the partitioner's own accounting of the same assignment.
func TestReplicationFactorMatchesPartitionStats(t *testing.T) {
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5}
	f := func(seed int64, partsRaw uint8) bool {
		g := erdosRenyi(t, 60, 400, uint64(seed)+7)
		parts := int(partsRaw%8) + 1
		strat := partition.HashEdge{Seed: uint64(seed)}
		assign, err := strat.Partition(g, parts)
		if err != nil {
			return false
		}
		r := openSim(t, Sim{Nodes: 2, Spec: cluster.TypeI(), Partitions: parts, Strategy: strat}, g, cfg, 0)
		diff := r.st.ReplicationFactor - partition.ComputeStats(g, assign).ReplicationFactor
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSimGatherComposesAcrossRandomDeployments: for arbitrary random graphs,
// partition counts, node counts and strategies, one untruncated step 1
// leaves every replica of every vertex, master and mirror alike, with its
// exact out-neighbourhood — partial gathers, master folds and refreshes
// compose to the full gather of eq. 3 — and every vertex with an edge has
// exactly one master.
func TestSimGatherComposesAcrossRandomDeployments(t *testing.T) {
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5}
	f := func(seed int64, partsRaw, nodesRaw, stratRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := erdosRenyi(t, rng.Intn(80)+5, rng.Intn(500)+5, uint64(seed)+99)
		var strat partition.Strategy
		switch stratRaw % 3 {
		case 0:
			strat = partition.HashEdge{Seed: uint64(seed)}
		case 1:
			strat = partition.HashSource{Seed: uint64(seed)}
		default:
			strat = partition.Greedy{}
		}
		sim := Sim{Nodes: int(nodesRaw%4) + 1, Spec: cluster.TypeI(), Partitions: int(partsRaw%12) + 1, Strategy: strat}
		r := openSim(t, sim, g, cfg, uint64(seed))
		if err := r.step(core.DistTruncate); err != nil {
			return false
		}
		masters := 0
		for p, sh := range r.cut.Shards {
			for li, v := range sh.Locals {
				if sh.Roles[li]&graph.RoleMaster != 0 {
					masters++
				}
				if !slices.Equal(r.parts[p].Data(int32(li)).Nbrs, g.OutNeighbors(v)) {
					return false
				}
			}
		}
		touched := map[graph.VertexID]bool{}
		g.ForEachEdge(func(u, v graph.VertexID) { touched[u], touched[v] = true, true })
		return masters == len(touched)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

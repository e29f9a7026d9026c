package gas

import (
	"math/rand"
	"testing"
	"testing/quick"

	"snaple/internal/cluster"
	"snaple/internal/gen"
	"snaple/internal/graph"
	"snaple/internal/partition"
)

// TestDegreeProgramPropertyAcrossRandomDeployments: for arbitrary random
// graphs, partition counts, node counts and strategies, one superstep of the
// degree program must reproduce every out-degree exactly. This is the
// engine's core correctness property (partial gathers + master collection +
// broadcast compose to the full gather of eq. 3).
func TestDegreeProgramPropertyAcrossRandomDeployments(t *testing.T) {
	f := func(seed int64, partsRaw, nodesRaw, stratRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(80) + 5
		m := rng.Intn(500) + 5
		g, err := gen.ErdosRenyi(n, m, uint64(seed)+99)
		if err != nil {
			return false
		}
		parts := int(partsRaw%12) + 1
		nodes := int(nodesRaw%4) + 1
		var strat partition.Strategy
		switch stratRaw % 3 {
		case 0:
			strat = partition.HashEdge{Seed: uint64(seed)}
		case 1:
			strat = partition.HashSource{Seed: uint64(seed)}
		default:
			strat = partition.Greedy{}
		}
		assign, err := strat.Partition(g, parts)
		if err != nil {
			return false
		}
		cl, err := cluster.New(cluster.Config{Nodes: nodes, Spec: cluster.TypeI()}, parts)
		if err != nil {
			return false
		}
		dg, err := Distribute[int](g, assign, cl, Options{Seed: uint64(seed)})
		if err != nil {
			return false
		}
		if _, err := RunStep[int, int](dg, degProg{}); err != nil {
			return false
		}
		ok := true
		covered := 0
		dg.ForEachMaster(func(v graph.VertexID, d *int) {
			if *d != g.OutDegree(v) {
				ok = false
			}
			covered++
		})
		// Every vertex touched by at least one edge must have a master.
		touched := map[graph.VertexID]bool{}
		g.ForEachEdge(func(u, v graph.VertexID) { touched[u] = true; touched[v] = true })
		return ok && covered == len(touched)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestReplicationFactorMatchesPartitionStats: the engine's replication factor
// must equal the partitioner's own accounting of the same assignment.
func TestReplicationFactorMatchesPartitionStats(t *testing.T) {
	f := func(seed int64, partsRaw uint8) bool {
		g, err := gen.ErdosRenyi(60, 400, uint64(seed)+7)
		if err != nil {
			return false
		}
		parts := int(partsRaw%8) + 1
		assign, err := partition.HashEdge{Seed: uint64(seed)}.Partition(g, parts)
		if err != nil {
			return false
		}
		cl, err := cluster.New(cluster.Config{Nodes: 2, Spec: cluster.TypeI()}, parts)
		if err != nil {
			return false
		}
		dg, err := Distribute[int](g, assign, cl, Options{})
		if err != nil {
			return false
		}
		st := partition.ComputeStats(g, assign)
		diff := dg.ReplicationFactor() - st.ReplicationFactor
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestTrafficConservation: bytes received must equal bytes sent, per
// snapshot, under arbitrary step sequences.
func TestTrafficConservation(t *testing.T) {
	g := testGraph(t, 90, 700, 12)
	dg := distribute[[]graph.VertexID](t, g, 6, 3, 0)
	for i := 0; i < 3; i++ {
		if _, err := RunStep[[]graph.VertexID, []graph.VertexID](dg, nbrProg{}); err != nil {
			t.Fatal(err)
		}
	}
	tr := dg.cl.Snapshot()
	var in, out int64
	for n := range tr.NodeIn {
		in += tr.NodeIn[n]
		out += tr.NodeOut[n]
	}
	if in != out {
		t.Errorf("traffic not conserved: in=%d out=%d", in, out)
	}
	if in != tr.CrossBytes {
		t.Errorf("per-node sums (%d) disagree with total cross bytes (%d)", in, tr.CrossBytes)
	}
}

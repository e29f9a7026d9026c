package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"snaple/internal/gen"
	"snaple/internal/graph"
)

func randomGraph(t testing.TB, n, m int, seed uint64) *graph.Digraph {
	t.Helper()
	g, err := gen.ErdosRenyi(n, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func strategies() []Strategy {
	return []Strategy{HashEdge{Seed: 1}, HashSource{Seed: 1}, Greedy{}}
}

// TestEveryEdgeAssignedExactlyOnce: the assignment covers each edge index
// once with an in-range partition — the fundamental vertex-cut invariant.
func TestEveryEdgeAssignedExactlyOnce(t *testing.T) {
	g := randomGraph(t, 200, 2000, 3)
	for _, s := range strategies() {
		t.Run(s.Name(), func(t *testing.T) {
			for _, parts := range []int{1, 2, 5, 16} {
				a, err := s.Partition(g, parts)
				if err != nil {
					t.Fatal(err)
				}
				if a.Parts != parts || len(a.EdgeTo) != g.NumEdges() {
					t.Fatalf("assignment shape: parts=%d len=%d", a.Parts, len(a.EdgeTo))
				}
				for i, p := range a.EdgeTo {
					if p < 0 || int(p) >= parts {
						t.Fatalf("edge %d assigned to %d of %d", i, p, parts)
					}
				}
			}
		})
	}
}

func TestValidation(t *testing.T) {
	g := randomGraph(t, 10, 20, 1)
	for _, s := range strategies() {
		if _, err := s.Partition(g, 0); err == nil {
			t.Errorf("%s accepted parts=0", s.Name())
		}
		if _, err := s.Partition(nil, 2); err == nil {
			t.Errorf("%s accepted nil graph", s.Name())
		}
	}
}

func TestHashSourceKeepsSourceTogether(t *testing.T) {
	g := randomGraph(t, 100, 1500, 2)
	a, err := HashSource{Seed: 9}.Partition(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	partOf := make(map[graph.VertexID]int32)
	i := 0
	g.ForEachEdge(func(u, _ graph.VertexID) {
		if p, ok := partOf[u]; ok && p != a.EdgeTo[i] {
			t.Fatalf("source %d split across partitions %d and %d", u, p, a.EdgeTo[i])
		}
		partOf[u] = a.EdgeTo[i]
		i++
	})
}

func TestGreedyBeatsHashOnReplication(t *testing.T) {
	// On a clustered graph the greedy heuristic should cut fewer vertices
	// than random edge hashing.
	g, err := gen.Community(gen.CommunityConfig{N: 1000, Communities: 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	const parts = 8
	ah, err := HashEdge{Seed: 1}.Partition(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := Greedy{}.Partition(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	sh, sg := ComputeStats(g, ah), ComputeStats(g, ag)
	if sg.ReplicationFactor >= sh.ReplicationFactor {
		t.Errorf("greedy RF %.2f not below hash RF %.2f", sg.ReplicationFactor, sh.ReplicationFactor)
	}
	if sg.ReplicationFactor < 1 || sh.ReplicationFactor < 1 {
		t.Errorf("replication factors below 1: greedy %.2f hash %.2f", sg.ReplicationFactor, sh.ReplicationFactor)
	}
}

// TestReplicationFactorProperties: RF >= 1 and RF <= min(parts, ...) for any
// random graph and partition count; balance >= 1.
func TestReplicationFactorProperties(t *testing.T) {
	f := func(seed int64, partsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		parts := int(partsRaw%15) + 1
		n := rng.Intn(60) + 10
		m := rng.Intn(300) + 10
		g, err := gen.ErdosRenyi(n, m, uint64(seed)+1)
		if err != nil || g.NumEdges() == 0 {
			return true // degenerate, skip
		}
		for _, s := range strategies() {
			a, err := s.Partition(g, parts)
			if err != nil {
				return false
			}
			st := ComputeStats(g, a)
			if st.ReplicationFactor < 1 || st.ReplicationFactor > float64(parts) {
				return false
			}
			if st.Balance < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSinglePartitionReplicationIsOne(t *testing.T) {
	g := randomGraph(t, 50, 400, 6)
	for _, s := range strategies() {
		a, err := s.Partition(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		st := ComputeStats(g, a)
		if st.ReplicationFactor != 1 {
			t.Errorf("%s: RF on 1 partition = %v, want 1", s.Name(), st.ReplicationFactor)
		}
		if st.Balance != 1 {
			t.Errorf("%s: balance on 1 partition = %v, want 1", s.Name(), st.Balance)
		}
	}
}

// TestGreedyBalance pins greedy's load cap on the input that used to
// collapse it: on a source-ordered power-law stream every edge touches a
// partition already holding one of its endpoints, and without the cap every
// edge lands on partition 0.
func TestGreedyBalance(t *testing.T) {
	stream, err := gen.NewPowerLawStream(2_000, 20_000, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := stream.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{2, 16, 80} {
		a, err := Greedy{}.Partition(g, parts)
		if err != nil {
			t.Fatal(err)
		}
		st := ComputeStats(g, a)
		if limit := greedySlack + float64(parts)/float64(g.NumEdges()); st.Balance > limit {
			t.Errorf("parts=%d: balance %.3f, want <= %.4f (RF %.2f)", parts, st.Balance, limit, st.ReplicationFactor)
		}
	}
}

func TestGreedyBeyond64Parts(t *testing.T) {
	// The bitset implementation supports arbitrary partition counts; the
	// heuristic must still beat random hashing at 100 parts.
	g, err := gen.Community(gen.CommunityConfig{N: 800, Communities: 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := Greedy{}.Partition(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ag.Parts != 100 || len(ag.EdgeTo) != g.NumEdges() {
		t.Fatal("assignment malformed")
	}
	ah, err := HashEdge{Seed: 1}.Partition(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	sg, sh := ComputeStats(g, ag), ComputeStats(g, ah)
	if sg.ReplicationFactor >= sh.ReplicationFactor {
		t.Errorf("greedy RF %.2f not below hash RF %.2f at 100 parts",
			sg.ReplicationFactor, sh.ReplicationFactor)
	}
}

func TestDeterminism(t *testing.T) {
	g := randomGraph(t, 120, 900, 8)
	for _, s := range strategies() {
		a1, err := s.Partition(g, 6)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := s.Partition(g, 6)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a1.EdgeTo {
			if a1.EdgeTo[i] != a2.EdgeTo[i] {
				t.Fatalf("%s not deterministic at edge %d", s.Name(), i)
			}
		}
	}
}

package snaple_test

import (
	"errors"
	"fmt"
	"log"
	"slices"

	"snaple"
)

// The paper's three-way comparison on one graph: SNAPLE on the simulated
// GAS cluster, the naive BASELINE (direct 2-hop Jaccard, shipping
// neighbourhoods) and Cassovary-style random walks — then BASELINE's
// resource exhaustion under a node memory budget SNAPLE fits in
// (Section 5.3). Only deterministic numbers are printed: the simulated costs
// are exact, the times would not be.
func ExamplePredictBaseline() {
	g, err := snaple.Dataset("pokec", 0.5, 42)
	if err != nil {
		log.Fatal(err)
	}
	split, err := snaple.NewSplit(g, 1, 42)
	if err != nil {
		log.Fatal(err)
	}
	opts := snaple.Options{
		Score: "linearSum", KLocal: 20, ThrGamma: 200, Seed: 42,
		Engine: "sim", Nodes: 4, NodeType: "type-II",
	}
	report := func(system string, preds snaple.Predictions, st snaple.EngineStats) {
		fmt.Printf("%-25s recall %.3f  cross %6.2f MiB  rf %.2f\n", system,
			snaple.Recall(preds, split), float64(st.CrossBytes)/(1<<20), st.ReplicationFactor)
	}

	spreds, sst, err := snaple.PredictStats(split.Train, opts)
	if err != nil {
		log.Fatal(err)
	}
	report("SNAPLE (linearSum)", spreds, sst)
	bpreds, bst, err := snaple.PredictBaseline(split.Train, opts)
	if err != nil {
		log.Fatal(err)
	}
	report("BASELINE (2-hop Jaccard)", bpreds, bst)
	wpreds, err := snaple.PredictWalks(split.Train, 100, 3, 5, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-25s recall %.3f  (one machine)\n", "walks (w=100, d=3)", snaple.Recall(wpreds, split))

	// A node memory budget halfway between the two systems' peaks.
	opts.MemBudgetBytes = (sst.MemPeakBytes + bst.MemPeakBytes) / 2
	_, _, err = snaple.PredictBaseline(split.Train, opts)
	fmt.Println("under the budget, BASELINE runs out of memory:", errors.Is(err, snaple.ErrMemoryExhausted))
	spreds, _, err = snaple.PredictStats(split.Train, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("under the budget, SNAPLE completes: recall %.3f\n", snaple.Recall(spreds, split))
	// Output:
	// SNAPLE (linearSum)        recall 0.116  cross  24.33 MiB  rf 16.22
	// BASELINE (2-hop Jaccard)  recall 0.082  cross 164.89 MiB  rf 16.22
	// walks (w=100, d=3)        recall 0.098  (one machine)
	// under the budget, BASELINE runs out of memory: true
	// under the budget, SNAPLE completes: recall 0.116
}

// One prediction job on growing simulated clusters: replication and network
// traffic grow with the cluster while the predictions stay bit-identical —
// distribution only trades compute time against traffic (Figure 5,
// Section 2.4). The simulated seconds are left out: they are measured host
// time.
func ExamplePredictStats() {
	g, err := snaple.Dataset("livejournal", 0.5, 42)
	if err != nil {
		log.Fatal(err)
	}
	split, err := snaple.NewSplit(g, 1, 42)
	if err != nil {
		log.Fatal(err)
	}
	opts := snaple.Options{Score: "linearSum", K: 5, KLocal: 40, ThrGamma: 200, Seed: 42, Engine: "sim"}
	for _, d := range []struct {
		nodes    int
		nodeType string
	}{
		{1, "type-I"}, {2, "type-I"}, {4, "type-I"}, {8, "type-I"},
		{16, "type-I"}, {32, "type-I"}, {4, "type-II"}, {8, "type-II"},
	} {
		opts.Nodes, opts.NodeType = d.nodes, d.nodeType
		preds, st, err := snaple.PredictStats(split.Train, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s x %-2d  cross %6.2f MiB  rf %5.2f  recall %.3f\n", d.nodeType, d.nodes,
			float64(st.CrossBytes)/(1<<20), st.ReplicationFactor, snaple.Recall(preds, split))
	}
	// Output:
	// type-I  x 1   cross   0.00 MiB  rf  5.67  recall 0.118
	// type-I  x 2   cross  14.22 MiB  rf  8.02  recall 0.118
	// type-I  x 4   cross  28.51 MiB  rf 10.26  recall 0.118
	// type-I  x 8   cross  42.70 MiB  rf 12.16  recall 0.118
	// type-I  x 16  cross  55.57 MiB  rf 13.61  recall 0.118
	// type-I  x 32  cross  65.78 MiB  rf 14.59  recall 0.118
	// type-II x 4   cross  39.04 MiB  rf 12.68  recall 0.118
	// type-II x 8   cross  54.46 MiB  rf 13.97  recall 0.118
}

// Quickstart: generate a small social graph, hide one edge per user, ask
// SNAPLE to predict the missing links with the paper's default
// configuration, and measure how many hidden edges it recovers.
func ExamplePredict() {
	// A 2,000-user social graph with 20 interest communities.
	g, err := snaple.GenerateCommunity(snaple.CommunityGraph{N: 2000, Communities: 20}, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %v\n", g)

	// The paper's protocol: hide one outgoing edge of every vertex with
	// more than three neighbours, then try to recover it.
	split, err := snaple.NewSplit(g, 1, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hidden edges: %d\n", split.NumRemoved)

	// Jaccard similarity, linear combinator, Sum aggregator, k_local = 20.
	preds, err := snaple.Predict(split.Train, snaple.Options{
		Score: "linearSum", K: 5, KLocal: 20, ThrGamma: 200, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recall@5: %.3f\n", snaple.Recall(preds, split))

	const user = 17
	fmt.Printf("recommendations for user %d (current friends: %v):\n", user, split.Train.OutNeighbors(user))
	for i, p := range preds[user] {
		hidden := ""
		if slices.Contains(split.Removed[user], p.Vertex) {
			hidden = "  <- this edge was hidden"
		}
		fmt.Printf("  %d. user %d (score %.4f)%s\n", i+1, p.Vertex, p.Score, hidden)
	}
	// Output:
	// generated digraph{V=2000 E=11206}
	// hidden edges: 814
	// recall@5: 0.138
	// recommendations for user 17 (current friends: [195 361 692 1197 1343 1692]):
	//   1. user 1143 (score 0.0200)
	//   2. user 12 (score 0.0111)
	//   3. user 52 (score 0.0111)
	//   4. user 392 (score 0.0100)
	//   5. user 512 (score 0.0100)
}

// Who-to-follow, the scenario that motivates the paper (Twitter's WTF
// service, Section 1): on a directed follower graph with interest
// communities, compare what four scoring configurations recommend to one
// user, then check that recommendations respect communities (homophily).
// The generator places vertex u in community u mod Communities.
func Example_whoToFollow() {
	const communities = 12
	g, err := snaple.GenerateCommunity(snaple.CommunityGraph{
		N: 5000, Communities: communities, MinDeg: 3, MaxDeg: 300,
	}, 7)
	if err != nil {
		log.Fatal(err)
	}
	var user snaple.VertexID // the first reasonably active user
	for g.OutDegree(user) < 8 {
		user++
	}
	fmt.Printf("%v; user %d follows %d accounts, community #%d\n",
		g, user, g.OutDegree(user), int(user)%communities)

	for _, score := range []string{"linearSum", "counter", "PPR", "linearMean"} {
		preds, err := snaple.Predict(g, snaple.Options{Score: score, K: 5, KLocal: 20, ThrGamma: 200, Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s", score)
		for _, p := range preds[user] {
			fmt.Printf("  %d (#%d)", p.Vertex, int(p.Vertex)%communities)
		}
		fmt.Println()
	}

	// Random guessing would keep 1 recommendation in 12 inside the
	// recommender's community.
	preds, err := snaple.Predict(g, snaple.Options{Score: "linearSum", KLocal: 20, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	same, total := 0, 0
	for u, ps := range preds {
		for _, p := range ps {
			total++
			if int(p.Vertex)%communities == u%communities {
				same++
			}
		}
	}
	fmt.Printf("recommendations inside the user's community: %.1f%%\n", 100*float64(same)/float64(total))
	// Output:
	// digraph{V=5000 E=44057}; user 15 follows 22 accounts, community #3
	// linearSum   854 (#2)  889 (#1)  3759 (#3)  4695 (#3)  4431 (#3)
	// counter     854 (#2)  889 (#1)  212 (#8)  339 (#3)  676 (#4)
	// PPR         889 (#1)  854 (#2)  1 (#1)  3110 (#2)  1087 (#7)
	// linearMean  375 (#3)  3723 (#3)  1515 (#3)  843 (#3)  1011 (#3)
	// recommendations inside the user's community: 73.0%
}

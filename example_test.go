package snaple_test

import (
	"errors"
	"fmt"
	"log"

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

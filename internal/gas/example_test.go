package gas_test

import (
	"fmt"

	"snaple/internal/cluster"
	"snaple/internal/gas"
	"snaple/internal/graph"
	"snaple/internal/partition"
)

// pageRank is a classic GAS program (the PowerGraph paper's running
// example), included to document that the engine is not specific to link
// prediction: rank(v) = 0.15 + 0.85 * Σ_{u→v} rank(u)/outdeg(u). The sum
// runs over v's in-edges, so the program runs over the transposed graph,
// where they are v's out-edges; outDeg is the original graph's.
type pageRank struct {
	outDeg []int
}

func (p pageRank) Gather(_, dst graph.VertexID, _, dstData *float64) (float64, bool) {
	if p.outDeg[dst] == 0 {
		return 0, false
	}
	return *dstData / float64(p.outDeg[dst]), true
}

func (pageRank) Sum(a, b float64) float64 { return a + b }

func (pageRank) Apply(_ graph.VertexID, rank *float64, sum float64, _ bool) {
	*rank = 0.15 + 0.85*sum
}

func (pageRank) VertexBytes(*float64) int64 { return 8 }
func (pageRank) GatherBytes(float64) int64  { return 8 }

// ExampleRunStep runs thirty PageRank supersteps on a small graph distributed
// over two simulated nodes and prints the highest-ranked vertex.
func ExampleRunStep() {
	// A star pointing at vertex 0, plus a 2-cycle between 0 and 1.
	edges := []graph.Edge{
		{Src: 1, Dst: 0}, {Src: 2, Dst: 0}, {Src: 3, Dst: 0}, {Src: 4, Dst: 0},
		{Src: 0, Dst: 1},
	}
	g := graph.MustFromEdges(5, edges)
	for i, e := range edges {
		edges[i] = graph.Edge{Src: e.Dst, Dst: e.Src}
	}
	gt := graph.MustFromEdges(5, edges) // the transpose
	assign, err := partition.HashEdge{Seed: 1}.Partition(gt, 4)
	if err != nil {
		panic(err)
	}
	cl, err := cluster.New(cluster.Config{Nodes: 2, Spec: cluster.TypeI()}, 4)
	if err != nil {
		panic(err)
	}
	dg, err := gas.Distribute[float64](gt, assign, cl, gas.Options{})
	if err != nil {
		panic(err)
	}
	dg.InitVertices(func(graph.VertexID) float64 { return 1 })

	prog := pageRank{outDeg: g.OutDegrees()}
	for i := 0; i < 30; i++ {
		if _, err := gas.RunStep[float64, float64](dg, prog); err != nil {
			panic(err)
		}
	}

	best, bestRank := graph.VertexID(0), 0.0
	dg.ForEachMaster(func(v graph.VertexID, rank *float64) {
		if *rank > bestRank {
			best, bestRank = v, *rank
		}
	})
	fmt.Printf("vertex %d has the highest rank (%.2f)\n", best, bestRank)
	// Output: vertex 0 has the highest rank (2.37)
}

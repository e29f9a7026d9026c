package core

import (
	"fmt"

	"snaple/internal/graph"
	"snaple/internal/topk"
)

// ReferenceSnaple executes SNAPLE's scoring (Sections 3-4) serially on a
// single machine, with semantics bit-identical to the distributed supersteps
// (DistPartition) and to the parallel shared-memory backend
// (internal/engine): the same hash-keyed truncation draws, the same relay
// selection, the same sorted-fold aggregation and the same tie-breaking. The
// other substrates are required by tests to agree exactly; this loop also
// serves as an in-process predictor for small graphs and as the test oracle.
func ReferenceSnaple(g graph.View, cfg Config) (Predictions, error) {
	r, err := NewStepRunner(g, cfg)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	s := r.NewScratch()

	// Steps 1-2: truncated neighbourhoods and relay selection, materialised
	// in flat arenas via the count/fill protocol (arena.go).
	trunc, sims := runSteps12(r, n, s)

	// Step 3: path combination and aggregation. Predictions append into one
	// shared buffer; pred[u] aliases its region. A scoped run visits only
	// the sources — members are ascending, so the buffer layout matches the
	// full loop's.
	pred := make(Predictions, n)
	var buf []Prediction
	eachScoped(n, r.Frontier(), DistCombine, func(u graph.VertexID) {
		start := len(buf)
		buf = r.CombineAppend(u, trunc, sims, s, buf)
		if len(buf) > start {
			pred[u] = buf[start:len(buf):len(buf)]
		}
	})
	return pred, nil
}

// eachScoped runs fn over the vertices step visits: all n of them on a full
// pass (f nil), step's frontier members on a query-scoped one — none at all
// when that set is empty. Both orders are ascending.
func eachScoped(n int, f *Frontier, step DistStep, fn func(graph.VertexID)) {
	if f == nil {
		for u := 0; u < n; u++ {
			fn(graph.VertexID(u))
		}
		return
	}
	if set := f.StepSet(step); set != nil {
		for _, u := range set.Members() {
			fn(u)
		}
	}
}

// runSteps12 executes steps 1 and 2 serially into fresh arenas, the prefix
// the reference and the supervised features share. Scoped runs restrict each
// pass to its frontier set; unvisited rows keep their zero count.
func runSteps12(r *StepRunner, n int, s *Scratch) (*Arena[graph.VertexID], *Arena[VertexSim]) {
	f := r.Frontier()
	trunc := NewArena[graph.VertexID](n)
	eachScoped(n, f, DistTruncate, func(u graph.VertexID) {
		trunc.SetCount(u, r.TruncateCount(u, s))
	})
	trunc.FinishCounts()
	eachScoped(n, f, DistTruncate, func(u graph.VertexID) {
		r.TruncateFill(u, trunc.Row(u), s)
	})

	sims := NewArena[VertexSim](n)
	eachScoped(n, f, DistRelays, func(u graph.VertexID) {
		sims.SetCount(u, r.RelayCount(u))
	})
	sims.FinishCounts()
	eachScoped(n, f, DistRelays, func(u graph.VertexID) {
		r.RelaysFill(u, trunc, sims.Row(u), s)
	})
	return trunc, sims
}

// ReferenceBaseline is the serial oracle for BASELINE: for every vertex it
// scores each 2-hop candidate with Jaccard on full neighbourhoods and keeps
// the top k.
func ReferenceBaseline(g graph.View, k int) (Predictions, error) {
	if k < 1 {
		return nil, errBaselineK(k)
	}
	n := g.NumVertices()
	pred := make(Predictions, n)
	var jac Jaccard
	for u := 0; u < n; u++ {
		uid := graph.VertexID(u)
		nbrs := g.OutNeighbors(uid)
		if len(nbrs) == 0 {
			continue
		}
		coll := topk.New(k)
		seen := make(map[graph.VertexID]struct{})
		for _, v := range nbrs {
			for _, z := range g.OutNeighbors(v) {
				if z == uid || containsVertex(nbrs, z) {
					continue
				}
				if _, dup := seen[z]; dup {
					continue
				}
				seen[z] = struct{}{}
				coll.Push(uint32(z), jac.Score(nbrs, g.OutNeighbors(z), 0, 0))
			}
		}
		pred[uid] = appendItems(nil, coll.Result())
	}
	return pred, nil
}

func errBaselineK(k int) error {
	return fmt.Errorf("core: baseline k=%d, need >= 1", k)
}

package core

import (
	"testing"

	"snaple/internal/graph"
	"snaple/internal/randx"
)

// frontierTestGraph builds a deterministic sparse digraph with hubs, plus
// two trailing isolated vertices (300, 301). Its 302 vertices put every
// closure past the promotion rule (bitmapShare), i.e. on bitmaps.
func frontierTestGraph(t *testing.T) *graph.Digraph {
	return paddedFrontierTestGraph(t, 2)
}

// paddedFrontierTestGraph is frontierTestGraph followed by pad isolated
// vertices instead of two. Padding changes no closure and no prediction,
// only the size of the vertex range the promotion rule compares a closure
// against: with enough of it small closures stay sorted lists.
func paddedFrontierTestGraph(t *testing.T, pad int) *graph.Digraph {
	t.Helper()
	const n = 300
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			p := 6.0 / float64(n)
			if u%60 == 0 {
				p = 0.2
			}
			if randx.Float64(11, uint64(u), uint64(v)) < p {
				edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)})
			}
		}
	}
	g, err := graph.FromEdges(n+pad, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sparsePad is enough padding for paddedFrontierTestGraph that one-source
// closures of ordinary vertices stay lists while a hub's is promoted.
const sparsePad = 300 * bitmapShare

func frontierCfg(t *testing.T, sources ...graph.VertexID) Config {
	t.Helper()
	spec, err := ScoreByName("linearSum", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Score: spec, K: 5, KLocal: 4, ThrGamma: 10, Seed: 42, Sources: sources}
}

// TestNewFrontierClosure verifies the closure sets against a brute-force
// recomputation of the dependency rules documented in frontier.go, on a
// vertex range small enough that the sets are promoted to bitmaps and on a
// padded one where they stay sorted lists.
func TestNewFrontierClosure(t *testing.T) {
	forms := map[bool]int{} // Trunc.HasBitmap() -> closures seen
	for _, g := range []*graph.Digraph{frontierTestGraph(t), paddedFrontierTestGraph(t, sparsePad)} {
		testFrontierClosure(t, g, forms)
	}
	if forms[false] == 0 || forms[true] == 0 {
		t.Fatalf("closures seen by form (bitmap -> count) = %v, want both forms", forms)
	}
}

func testFrontierClosure(t *testing.T, g *graph.Digraph, forms map[bool]int) {
	for _, sources := range [][]graph.VertexID{
		{0},
		{7, 7, 7}, // duplicates collapse
		{0, 60, 120, 33, 299},
		{300}, // isolated: closure is just the source
	} {
		f, err := NewFrontier(g, frontierCfg(t, sources...))
		if err != nil {
			t.Fatal(err)
		}

		want := func(name string, set *VertexSet, in map[graph.VertexID]bool) {
			if set.Len() != len(in) {
				t.Fatalf("sources=%v: %s has %d members, want %d", sources, name, set.Len(), len(in))
			}
			prev := graph.VertexID(0)
			for i, v := range set.Members() {
				if !in[v] {
					t.Fatalf("sources=%v: %s contains %d unexpectedly", sources, name, v)
				}
				if !set.Contains(v) {
					t.Fatalf("%s member %d not Contains()", name, v)
				}
				if i > 0 && v <= prev {
					t.Fatalf("%s members not strictly ascending at %d", name, v)
				}
				prev = v
			}
			for u := 0; u < g.NumVertices(); u++ {
				if v := graph.VertexID(u); set.Contains(v) != in[v] {
					t.Fatalf("sources=%v: %s.Contains(%d) = %v", sources, name, v, !in[v])
				}
			}
		}
		addOut := func(from, into map[graph.VertexID]bool) {
			for v := range from {
				for _, w := range g.OutNeighbors(v) {
					into[w] = true
				}
			}
		}
		clone := func(m map[graph.VertexID]bool) map[graph.VertexID]bool {
			c := make(map[graph.VertexID]bool, len(m))
			for k := range m {
				c[k] = true
			}
			return c
		}

		pred := map[graph.VertexID]bool{}
		for _, s := range sources {
			pred[s] = true
		}
		want("Pred", f.Pred, pred)

		sims := clone(pred)
		addOut(pred, sims)
		want("Sims", f.Sims, sims)

		trunc := clone(sims)
		addOut(sims, trunc)
		want("Trunc", f.Trunc, trunc)

		if f.Size() != f.Trunc.Len() {
			t.Fatalf("Size() = %d, want %d", f.Size(), f.Trunc.Len())
		}
		forms[f.Trunc.HasBitmap()]++
	}
}

func TestNewFrontierEdgeCases(t *testing.T) {
	g := frontierTestGraph(t)
	if f, err := NewFrontier(g, frontierCfg(t)); err != nil || f != nil {
		t.Fatalf("empty sources: got (%v, %v), want (nil, nil)", f, err)
	}
	if _, err := NewFrontier(g, frontierCfg(t, graph.VertexID(g.NumVertices()))); err == nil {
		t.Fatal("out-of-range source accepted")
	}

	// Nil-receiver helpers treat everything as in scope.
	var f *Frontier
	if !f.InPred(1) || !f.InSims(1) || !f.InTrunc(1) {
		t.Fatal("nil frontier rejected a vertex")
	}
	if f.Size() != 0 {
		t.Fatalf("nil frontier Size() = %d", f.Size())
	}
	if f.ScopeMask(3) != ScopeTrunc|ScopeSims|ScopePred {
		t.Fatalf("nil frontier mask = %x", f.ScopeMask(3))
	}
	if f.StepSet(DistCombine) != nil {
		t.Fatal("nil frontier StepSet non-nil")
	}
	if !f.StepHasWork(DistCombine, g) {
		t.Fatal("nil frontier has no work")
	}
}

// TestFrontierScopeMaskMatchesSets pins ScopeMask to the individual sets
// and the step bits to their sets.
func TestFrontierScopeMaskMatchesSets(t *testing.T) {
	g := frontierTestGraph(t)
	f, err := NewFrontier(g, frontierCfg(t, 0, 61))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.NumVertices(); u++ {
		v := graph.VertexID(u)
		m := f.ScopeMask(v)
		checks := []struct {
			bit  uint8
			in   bool
			step DistStep
		}{
			{ScopeTrunc, f.InTrunc(v), DistTruncate},
			{ScopeSims, f.InSims(v), DistRelays},
			{ScopePred, f.InPred(v), DistCombine},
		}
		for _, c := range checks {
			if got := m&c.bit != 0; got != c.in {
				t.Fatalf("vertex %d: mask bit %x = %v, set membership %v", v, c.bit, got, c.in)
			}
			if c.step.ScopeBit() != c.bit {
				t.Fatalf("step %v scope bit %x, want %x", c.step, c.step.ScopeBit(), c.bit)
			}
		}
	}
}

// TestFrontierStepHasWork exercises the superstep-skip predicate on
// isolated sources.
func TestFrontierStepHasWork(t *testing.T) {
	g := frontierTestGraph(t)

	f, err := NewFrontier(g, frontierCfg(t, 300, 301)) // both isolated
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []DistStep{DistTruncate, DistRelays, DistCombine} {
		if f.StepHasWork(step, g) {
			t.Fatalf("isolated sources: step %v claims work", step)
		}
	}

	f, err = NewFrontier(g, frontierCfg(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []DistStep{DistTruncate, DistRelays, DistCombine} {
		if !f.StepHasWork(step, g) {
			t.Fatalf("hub source: step %v claims no work", step)
		}
	}
}

// TestEachScopedEmptySetVisitsNothing pins how fullness is encoded: only a
// nil Frontier means "every vertex". A scoped run visits exactly its step
// sets — an isolated source's closure is the source alone — and a step set
// that is empty visits no vertex, whether its member list happens to be a
// nil slice or not.
func TestEachScopedEmptySetVisitsNothing(t *testing.T) {
	g := paddedFrontierTestGraph(t, sparsePad)
	n := g.NumVertices()
	count := func(f *Frontier, step DistStep) int {
		visits := 0
		eachScoped(n, f, step, func(graph.VertexID) { visits++ })
		return visits
	}
	f, err := NewFrontier(g, frontierCfg(t, 300))
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range DistSteps() {
		if got := count(f, step); got != 1 {
			t.Errorf("isolated source visits %d vertices in step %v, want 1", got, step)
		}
	}
	if got := count(nil, DistRelays); got != n {
		t.Errorf("full run visits %d vertices, want %d", got, n)
	}
	// An empty set built from a nil list must scope to nothing, too.
	f = &Frontier{Pred: &VertexSet{}, Sims: &VertexSet{}, Trunc: &VertexSet{}}
	for _, step := range DistSteps() {
		if got := count(f, step); got != 0 {
			t.Errorf("empty set: step %v visits %d vertices", step, got)
		}
	}
}

// TestDirtySourcesMatchesReverseWalk checks the reverse closure against a
// brute-force breadth-first walk over the union of the old and new graphs,
// with the dirty set on both sides of the promotion rule.
func TestDirtySourcesMatchesReverseWalk(t *testing.T) {
	forms := map[bool]int{}
	for _, pad := range []int{2, sparsePad} {
		b := graph.NewBuilder(300 + pad).WithInEdges(true)
		paddedFrontierTestGraph(t, pad).ForEachEdge(b.AddEdge)
		base, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		n := base.NumVertices()
		for _, batch := range []struct{ add, remove []graph.Edge }{
			{add: []graph.Edge{{Src: 7, Dst: 9}}},
			{remove: []graph.Edge{{Src: 0, Dst: base.OutNeighbors(0)[0]}}},
			{
				add:    []graph.Edge{{Src: 5, Dst: 250}, {Src: 300, Dst: 1}, {Src: 5, Dst: 250}, {Src: graph.VertexID(n), Dst: 1}},
				remove: []graph.Edge{{Src: 60, Dst: base.OutNeighbors(60)[3]}, {Src: 2, Dst: graph.VertexID(n + 5)}},
			},
			{},
		} {
			inRange := func(es []graph.Edge) []graph.Edge {
				var out []graph.Edge
				for _, e := range es {
					if int(e.Src) < n && int(e.Dst) < n {
						out = append(out, e)
					}
				}
				return out
			}
			view, err := graph.NewDelta(base).Apply(inRange(batch.add), inRange(batch.remove))
			if err != nil {
				t.Fatal(err)
			}
			for _, depth := range []int{0, 2, 3} {
				want := map[graph.VertexID]bool{}
				level := map[graph.VertexID]bool{}
				for _, e := range append(inRange(batch.add), inRange(batch.remove)...) {
					level[e.Src] = true
				}
				for hop := 0; ; hop++ {
					for v := range level {
						want[v] = true
					}
					if hop == depth {
						break
					}
					next := map[graph.VertexID]bool{}
					for v := range level {
						for _, w := range view.InNeighbors(v) {
							next[w] = true
						}
						for _, e := range inRange(batch.remove) {
							if e.Dst == v {
								next[e.Src] = true
							}
						}
					}
					level = next
				}
				got := DirtySources(view, batch.add, batch.remove, depth)
				if got.Len() != len(want) {
					t.Fatalf("pad=%d depth=%d batch=%v: %d dirty, want %d", pad, depth, batch, got.Len(), len(want))
				}
				for i, v := range got.Members() {
					if !want[v] || !got.Contains(v) || (i > 0 && got.Members()[i-1] >= v) {
						t.Fatalf("pad=%d depth=%d: bad member %d at %d", pad, depth, v, i)
					}
				}
				if got.Len() > 0 {
					forms[got.HasBitmap()]++
				}
			}
		}
	}
	if forms[false] == 0 || forms[true] == 0 {
		t.Fatalf("dirty sets seen by form (bitmap -> count) = %v, want both forms", forms)
	}
}

package core

import (
	"fmt"
	"testing"

	"snaple/internal/graph"
	"snaple/internal/randx"
)

// allocTestGraph builds a deterministic graph with hubs (so truncation and
// k_local sampling both trigger) for the allocation-regression tests.
func allocTestGraph(t testing.TB, n int) *graph.Digraph {
	t.Helper()
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			p := 0.12
			if u%20 == 0 {
				p = 0.5 // hubs: degree well past ThrGamma below
			}
			if randx.Float64(99, uint64(u), uint64(v)) < p {
				edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)})
			}
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// rankForm returns a's rows re-homed in a rank-indexed arena whose member
// list is every vertex: the same content behind the other addressing, so a
// test can hold the step primitives to one contract on both arena forms.
func rankForm[T any](a *Arena[T]) *Arena[T] {
	members := make([]graph.VertexID, a.NumRows())
	for u := range members {
		members[u] = graph.VertexID(u)
	}
	out := NewRankArena[T](members)
	for _, u := range members {
		out.SetCount(u, len(a.Row(u)))
	}
	out.FinishCounts()
	for _, u := range members {
		copy(out.Row(u), a.Row(u))
	}
	return out
}

// TestStepFunctionsAllocationFree pins the arena contract of the per-vertex
// step primitives: once the arenas are built and the scratch buffers are
// warm, a full pass of every fill/append function over the graph performs
// zero heap allocations (the point of the flat-arena hot path — on a
// billion-edge run the old slice-of-slices layout allocated per vertex per
// step). The contract holds on both arena forms.
func TestStepFunctionsAllocationFree(t *testing.T) {
	g := allocTestGraph(t, 80)
	for _, policy := range []SelectionPolicy{SelectMax, SelectMin, SelectRnd} {
		t.Run(fmt.Sprintf("policy=%v", policy), func(t *testing.T) {
			spec, err := ScoreByName("linearSum", 0.9)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Score: spec, K: 5, KLocal: 4, ThrGamma: 8, Policy: policy, Seed: 7}
			r, err := NewStepRunner(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := g.NumVertices()
			s := r.NewScratch()

			// Build the arenas once; the measured region refills them.
			trunc, sims := runSteps12(r, n, s)
			buf := make([]Prediction, 0, n*cfg.K)

			for _, form := range []string{"identity", "rank"} {
				if form == "rank" {
					trunc, sims = rankForm(trunc), rankForm(sims)
				}
				allocs := testing.AllocsPerRun(5, func() {
					buf = buf[:0]
					for u := 0; u < n; u++ {
						uid := graph.VertexID(u)
						r.TruncateFill(uid, trunc.Row(uid), s)
						r.RelaysFill(uid, trunc, sims.Row(uid), s)
					}
					for u := 0; u < n; u++ {
						buf = r.CombineAppend(graph.VertexID(u), trunc, sims, s, buf)
					}
				})
				if allocs != 0 {
					t.Errorf("%s arenas: steady-state pass allocated %.1f times per run, want 0", form, allocs)
				}

				// The GAS schedulers' step-3 apply, over every vertex's sum
				// gathered edge by edge, through the same warm Scratch.
				comb := cfg.Score.Comb
				data := make([]VData, n)
				for u := range data {
					uid := graph.VertexID(u)
					data[u] = VData{Nbrs: trunc.Row(uid), Sims: sims.Row(uid)}
				}
				sums := make([][]PathCand, n)
				for u := range n {
					uid := graph.VertexID(u)
					for _, v := range g.OutNeighbors(uid) {
						sums[u] = appendCombine(comb, sums[u], uid, v, &data[u], &data[v])
					}
				}
				allocs = testing.AllocsPerRun(5, func() {
					buf = buf[:0]
					for u := range n {
						buf = s.applyCombine(&cfg, graph.VertexID(u), sums[u], buf)
					}
				})
				if allocs != 0 {
					t.Errorf("%s arenas: step-3 applies allocated %.1f times per run, want 0", form, allocs)
				}
			}
		})
	}
}

// TestStepFunctionsAllocationFreeOverlay pins the same steady-state
// contract on the overlay slow path: a StepRunner over a graph.Delta with
// pending mutations merges rows through the Scratch's reused buffer, so
// once warm it too performs zero allocations per pass.
func TestStepFunctionsAllocationFreeOverlay(t *testing.T) {
	base := allocTestGraph(t, 80)
	v := func(u int) graph.VertexID { return graph.VertexID(u) }
	d, err := graph.NewDelta(base).Apply(
		[]graph.Edge{{Src: v(1), Dst: v(70)}, {Src: v(20), Dst: v(3)}},
		[]graph.Edge{{Src: v(0), Dst: base.OutNeighbors(0)[0]}},
	)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ScoreByName("linearSum", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Score: spec, K: 5, KLocal: 4, ThrGamma: 8, Seed: 7}
	r, err := NewStepRunner(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := d.NumVertices()
	s := r.NewScratch()
	trunc, sims := runSteps12(r, n, s)
	buf := make([]Prediction, 0, n*cfg.K)
	for _, form := range []string{"identity", "rank"} {
		if form == "rank" {
			trunc, sims = rankForm(trunc), rankForm(sims)
		}
		allocs := testing.AllocsPerRun(5, func() {
			buf = buf[:0]
			for u := 0; u < n; u++ {
				uid := graph.VertexID(u)
				r.TruncateFill(uid, trunc.Row(uid), s)
				r.RelaysFill(uid, trunc, sims.Row(uid), s)
			}
			for u := 0; u < n; u++ {
				buf = r.CombineAppend(graph.VertexID(u), trunc, sims, s, buf)
			}
		})
		if allocs != 0 {
			t.Errorf("%s arenas: overlay steady-state pass allocated %.1f times per run, want 0", form, allocs)
		}
	}
}

// TestCountPassesMatchFills pins the count/fill contract: the count pass
// must predict the fill pass's row sizes exactly for every vertex (the
// arena protocol writes rows with no slack).
func TestCountPassesMatchFills(t *testing.T) {
	g := allocTestGraph(t, 60)
	spec, err := ScoreByName("geomSum", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Score: spec, K: 5, KLocal: 3, ThrGamma: 6, Seed: 3}
	r, err := NewStepRunner(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	s := r.NewScratch()
	trunc, sims := runSteps12(r, n, s)
	for u := 0; u < n; u++ {
		uid := graph.VertexID(u)
		if got, want := r.TruncateCount(uid, s), len(trunc.Row(uid)); got != want {
			t.Errorf("TruncateCount(%d) = %d, row length %d", u, got, want)
		}
		if got, want := r.RelayCount(uid), len(sims.Row(uid)); got != want {
			t.Errorf("RelayCount(%d) = %d, row length %d", u, got, want)
		}
	}
}

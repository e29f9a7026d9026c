package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"snaple/internal/gen"
	"snaple/internal/graph"
	"snaple/internal/topk"
)

// The first step-3 kernels, kept as the grouping kernel's oracle: line 15's
// exclusion by binary search per candidate, a comparison sort of the whole
// candidate list by Z, then a linear scan that folds each group.

func oracleExcluded(u graph.VertexID, excl []graph.VertexID, z graph.VertexID) bool {
	return z == u || containsVertex(excl, z)
}

func sortPathCands(cands []PathCand) {
	slices.SortFunc(cands, func(a, b PathCand) int { return cmp.Compare(a.Z, b.Z) })
}

func appendFoldSorted(cands []PathCand, cfg *Config, dst []Prediction) []Prediction {
	coll := topk.New(cfg.K)
	var vals []float64
	for i := 0; i < len(cands); {
		j := i
		for j < len(cands) && cands[j].Z == cands[i].Z {
			j++
		}
		vals = vals[:0]
		for _, pc := range cands[i:j] {
			vals = append(vals, pc.S)
		}
		coll.Push(uint32(cands[i].Z), cfg.Score.Agg.FoldPathsInPlace(vals))
		i = j
	}
	for _, it := range coll.Result() {
		dst = append(dst, Prediction{Vertex: graph.VertexID(it.ID), Score: it.Score})
	}
	return dst
}

// pathCase is one generated step-3 input: Z-ascending runs with the s(u,v)
// each is combined with, a candidate vertex u and its exclusion list.
type pathCase struct {
	runs [][]PathCand
	suv  []float64
	u    graph.VertexID
	excl []graph.VertexID
}

// pathValue draws a path or similarity value: mostly in [0,1], with ±0, a
// subnormal and a few repeated values mixed in.
func pathValue(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64
	case 3:
		return []float64{0.25, 0.5, 1}[rng.Intn(3)]
	}
	return rng.Float64()
}

// genPathCase draws runs of every shape the kernel meets: empty runs,
// length-1 runs, all-equal Z (one group of many values), the same Z in many
// runs, and (descending) a single strictly descending list.
func genPathCase(rng *rand.Rand, shape string) pathCase {
	var c pathCase
	span := 1 + rng.Intn(40)
	z := func() graph.VertexID { return graph.VertexID(10 + rng.Intn(span)) }
	switch shape {
	case "descending":
		n := rng.Intn(30)
		run := make([]PathCand, n)
		for i := range run {
			run[i] = PathCand{Z: graph.VertexID(10 + n - i), S: pathValue(rng)}
		}
		c.runs = [][]PathCand{run}
	default:
		for range rng.Intn(12) {
			var run []PathCand
			switch rng.Intn(4) {
			case 0: // empty
			case 1:
				run = []PathCand{{Z: z(), S: pathValue(rng)}}
			default:
				for range rng.Intn(15) {
					run = append(run, PathCand{Z: z(), S: pathValue(rng)})
				}
			}
			if shape == "equal" {
				for i := range run {
					run[i].Z = 17
				}
			}
			slices.SortFunc(run, func(a, b PathCand) int { return cmp.Compare(a.Z, b.Z) })
			c.runs = append(c.runs, run)
		}
	}
	for range c.runs {
		c.suv = append(c.suv, pathValue(rng))
	}
	// u is sometimes a candidate; the exclusion list mixes candidates with
	// ids below and above every candidate, and sometimes u itself.
	c.u = graph.VertexID(rng.Intn(span + 20))
	for v := range graph.VertexID(span + 20) {
		if rng.Intn(4) == 0 {
			c.excl = append(c.excl, v)
		}
	}
	if rng.Intn(2) == 0 && !slices.Contains(c.excl, c.u) {
		c.excl = append(c.excl, c.u)
		slices.Sort(c.excl)
	}
	return c
}

// TestPathTableMatchesSortOracle holds step 3's grouping kernel to the
// comparison-sort oracle it replaced, bit for bit, for all 11 scores and k
// in {1, 3, 20}: the combining table of CombineAppend (relay rows, each
// combined with its s(u,v), line 15 against Γ̂(u) ∪ {u}) and the apply-side
// table of applyCombine over an arbitrary concatenation of the runs. The
// same paths shuffled within and across relay rows, and a shuffled sum,
// must give bit-equal rows.
func TestPathTableMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var s Scratch
	for _, name := range ScoreNames() {
		for _, k := range []int{1, 3, 20} {
			cfg := Config{Score: mustScore(t, name), K: k}
			comb := cfg.Score.Comb
			s.coll = nil // sized for this k on first use
			for i := range 300 {
				shape := []string{"runs", "equal", "descending"}[i%3]
				c := genPathCase(rng, shape)
				label := fmt.Sprintf("%s/k=%d/case %d (%s)", name, k, i, shape)

				// The combining table: each run is the relay row of a relay
				// with s(u,v) = suv.
				var cands []PathCand
				rels := make([][]VertexSim, len(c.runs))
				paths := 0
				for r, run := range c.runs {
					for _, pc := range run {
						if !oracleExcluded(c.u, c.excl, pc.Z) {
							cands = append(cands, PathCand{Z: pc.Z, S: comb.Fn(c.suv[r], pc.S)})
						}
						rels[r] = append(rels[r], VertexSim{V: pc.Z, Sim: pc.S})
					}
					paths += len(run)
				}
				combine := func(order []int) []Prediction {
					s.paths.reset(c.u, c.excl, paths)
					for _, r := range order {
						s.paths.addRelays(&comb, c.suv[r], rels[r])
					}
					return s.appendTopK(&cfg, nil)
				}
				sortPathCands(cands)
				want := appendFoldSorted(cands, &cfg, nil)
				inOrder := make([]int, len(rels))
				for r := range inOrder {
					inOrder[r] = r
				}
				if got := combine(inOrder); !predsBitEqual(got, want) {
					t.Fatalf("%s: table %v, oracle %v", label, got, want)
				}
				for _, rel := range rels {
					rng.Shuffle(len(rel), func(i, j int) { rel[i], rel[j] = rel[j], rel[i] })
				}
				if got := combine(rng.Perm(len(rels))); !predsBitEqual(got, want) {
					t.Fatalf("%s: shuffled relay rows %v, in order %v", label, got, want)
				}

				// The applies: the runs' values as gathered, concatenated in
				// an arbitrary order, then shuffled across runs.
				var sum, kept []PathCand
				for _, r := range rng.Perm(len(c.runs)) {
					sum = append(sum, c.runs[r]...)
				}
				for _, pc := range sum {
					if pc.Z != c.u {
						kept = append(kept, pc)
					}
				}
				sorted := slices.Clone(kept)
				sortPathCands(sorted)
				want = appendFoldSorted(sorted, &cfg, nil)
				if got := s.applyCombine(&cfg, c.u, sum, nil); !predsBitEqual(got, want) {
					t.Fatalf("%s: applyCombine %v, oracle %v", label, got, want)
				}
				rng.Shuffle(len(sum), func(i, j int) { sum[i], sum[j] = sum[j], sum[i] })
				if got := s.applyCombine(&cfg, c.u, sum, nil); !predsBitEqual(got, want) {
					t.Fatalf("%s: shuffled applyCombine %v, oracle %v", label, got, want)
				}
			}
		}
	}

	// The fast path for groups of one and two values must fold exactly as
	// FoldPathsInPlace does, including on signed zeros, equal values,
	// subnormals and infinities.
	special := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1022, 0.5, 0.5, 1, math.Inf(1)}
	for _, agg := range []Aggregator{AggSum(), AggMean(), AggGeom()} {
		for _, a := range special {
			if got, want := foldGroup(agg, []float64{a}), agg.FoldPathsInPlace([]float64{a}); !sameBits(got, want) {
				t.Errorf("%s(%v) = %v, FoldPathsInPlace %v", agg.Name, a, got, want)
			}
			for _, b := range special {
				if got, want := foldGroup(agg, []float64{a, b}), agg.FoldPathsInPlace([]float64{a, b}); !sameBits(got, want) {
					t.Errorf("%s(%v, %v) = %v, FoldPathsInPlace %v", agg.Name, a, b, got, want)
				}
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func predsBitEqual(a, b []Prediction) bool {
	return slices.EqualFunc(a, b, func(x, y Prediction) bool { return x.Vertex == y.Vertex && sameBits(x.Score, y.Score) })
}

// BenchmarkCombineAppend times step 3 alone — CombineAppend over every
// vertex, single-threaded, on built step-1/2 arenas — on a power-law graph
// under the bench configuration (linearSum, k = 20, k_local = 20, thrΓ =
// 200). It reports ns/vertex, the in-tree twin of the bench harness's
// core.combine_ns_per_vertex probe at a tenth of its graph.
func BenchmarkCombineAppend(b *testing.B) {
	const n = 20_000
	stream, err := gen.NewPowerLawStream(n, 200_000, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := stream.Build(1)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewStepRunner(g, Config{Score: mustScore(b, "linearSum"), K: 20, KLocal: 20, ThrGamma: 200, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	s := r.NewScratch()
	trunc, sims := runSteps12(r, n, s)
	buf := make([]Prediction, 0, 20)
	for b.Loop() {
		for u := range n {
			buf = r.CombineAppend(graph.VertexID(u), trunc, sims, s, buf[:0])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/vertex")
}

package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"snaple/internal/graph"
)

func TestSimilarityTable(t *testing.T) {
	a := []graph.VertexID{1, 2, 3, 4}
	b := []graph.VertexID{3, 4, 5}
	empty := []graph.VertexID{}
	tests := []struct {
		name       string
		sim        Similarity
		a, b       []graph.VertexID
		uDeg, vDeg int
		want       float64
	}{
		{"jaccard overlap", Jaccard{}, a, b, 0, 0, 2.0 / 5.0},
		{"jaccard identical", Jaccard{}, a, a, 0, 0, 1},
		{"jaccard disjoint", Jaccard{}, a, []graph.VertexID{9}, 0, 0, 0},
		{"jaccard empty", Jaccard{}, empty, empty, 0, 0, 0},
		{"invdeg", InverseDegree{}, a, b, 7, 4, 0.25},
		{"invdeg zero", InverseDegree{}, a, b, 7, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.sim.Score(tt.a, tt.b, tt.uDeg, tt.vDeg)
			if math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("%s.Score = %v, want %v", tt.sim.Name(), got, tt.want)
			}
		})
	}
}

func TestJaccardSymmetricAndBounded(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		ra := rand.New(rand.NewSource(seedA))
		rb := rand.New(rand.NewSource(seedB))
		mk := func(r *rand.Rand) []graph.VertexID {
			n := r.Intn(20)
			seen := map[graph.VertexID]bool{}
			for i := 0; i < n; i++ {
				seen[graph.VertexID(r.Intn(30))] = true
			}
			out := make([]graph.VertexID, 0, len(seen))
			for v := range seen {
				out = append(out, v)
			}
			sortVertexIDs(out)
			return out
		}
		a, b := mk(ra), mk(rb)
		var j Jaccard
		s1, s2 := j.Score(a, b, 0, 0), j.Score(b, a, 0, 0)
		return s1 == s2 && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCombinatorsMatchTable1(t *testing.T) {
	const a, b = 0.3, 0.4
	tests := []struct {
		comb Combinator
		want float64
	}{
		{Linear(0.5), 0.5*a + 0.5*b},
		{Linear(0.9), 0.9*a + 0.1*b},
		{Eucl(), math.Sqrt(a*a + b*b)},
		{GeomComb(), math.Sqrt(a * b)},
		{SumComb(), a + b},
		{CountComb(), 1},
	}
	for _, tt := range tests {
		if got := tt.comb.Fn(a, b); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("%s(%v,%v) = %v, want %v", tt.comb.Name, a, b, got, tt.want)
		}
	}
}

// TestCombinatorsMonotonic checks the paper's requirement that ⊗ is
// monotonically increasing (non-decreasing) in both arguments.
func TestCombinatorsMonotonic(t *testing.T) {
	combs := []Combinator{Linear(0.9), Linear(0.5), Eucl(), GeomComb(), SumComb(), CountComb()}
	f := func(aRaw, bRaw, dRaw uint16) bool {
		a := float64(aRaw) / math.MaxUint16
		b := float64(bRaw) / math.MaxUint16
		d := float64(dRaw) / math.MaxUint16
		for _, c := range combs {
			if c.Fn(a+d, b) < c.Fn(a, b) || c.Fn(a, b+d) < c.Fn(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAggregatorsMatchTable2(t *testing.T) {
	vals := []float64{0.2, 0.4, 0.6}
	tests := []struct {
		agg  Aggregator
		want float64
	}{
		{AggSum(), 1.2},
		{AggMean(), 0.4},
		{AggGeom(), math.Pow(0.2*0.4*0.6, 1.0/3.0)},
	}
	for _, tt := range tests {
		if got := tt.agg.FoldPaths(vals); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("%s(%v) = %v, want %v", tt.agg.Name, vals, got, tt.want)
		}
	}
}

func TestAggregatorEdgeCases(t *testing.T) {
	for _, agg := range []Aggregator{AggSum(), AggMean(), AggGeom()} {
		if got := agg.FoldPaths(nil); got != 0 {
			t.Errorf("%s(nil) = %v, want 0", agg.Name, got)
		}
		if got := agg.FoldPaths([]float64{0.7}); math.Abs(got-0.7) > 1e-12 {
			t.Errorf("%s(single) = %v, want 0.7", agg.Name, got)
		}
	}
	// Geom zeroes out on any zero path (Figure 3's vertex e).
	if got := AggGeom().FoldPaths([]float64{0, 0.9, 0.9}); got != 0 {
		t.Errorf("Geom with a zero path = %v, want 0", got)
	}
	// Sum is popularity-sensitive, Mean is not.
	many := []float64{0.2, 0.2, 0.2, 0.2}
	one := []float64{0.3}
	if AggSum().FoldPaths(many) <= AggSum().FoldPaths(one) {
		t.Error("Sum should reward path count")
	}
	if AggMean().FoldPaths(many) >= AggMean().FoldPaths(one) {
		t.Error("Mean should not reward path count here")
	}
}

// TestFoldPathsOrderIndependent: folding any permutation of the same values
// must produce the identical float — the property the distributed/serial
// equivalence rests on.
func TestFoldPathsOrderIndependent(t *testing.T) {
	aggs := []Aggregator{AggSum(), AggMean(), AggGeom()}
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%30) + 1
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		for _, agg := range aggs {
			want := agg.FoldPaths(vals)
			for trial := 0; trial < 5; trial++ {
				perm := make([]float64, n)
				copy(perm, vals)
				rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
				if agg.FoldPaths(perm) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFigure3Example reproduces the worked example of Figure 3: scores of
// a's candidates e, f, g under the linear combinator (α=0.5) and the three
// aggregators. Path similarities are taken from the figure's edge weights.
func TestFigure3Example(t *testing.T) {
	lin := Linear(0.5).Fn
	// Figure 3 reports, for linearSum/linearMean/linearGeom:
	//   e: 0.3 / 0.15 / 0    f: 0.6 / 0.3 / 0.28    g: 0.75 / 0.25 / 0.24
	// e has two 2-hop paths (one through h with zero similarities, the case
	// the text says Geom penalises), f two, g three. The per-path linear
	// combinations below reproduce the table within rounding.
	pathsE := []float64{lin(0.5, 0.1), lin(0, 0)}
	pathsF := []float64{lin(0.5, 0.3), lin(0.2, 0.2)}
	pathsG := []float64{lin(0.5, 0.2), lin(0.2, 0.2), lin(0.3, 0.1)}

	check := func(agg Aggregator, vals []float64, want float64, label string) {
		t.Helper()
		if got := agg.FoldPaths(vals); math.Abs(got-want) > 0.015 {
			t.Errorf("%s = %.3f, want %.3f", label, got, want)
		}
	}
	check(AggSum(), pathsE, 0.3, "linearSum(e)")
	check(AggSum(), pathsF, 0.6, "linearSum(f)")
	check(AggSum(), pathsG, 0.75, "linearSum(g)")
	check(AggMean(), pathsE, 0.15, "linearMean(e)")
	check(AggMean(), pathsF, 0.3, "linearMean(f)")
	check(AggMean(), pathsG, 0.25, "linearMean(g)")
	check(AggGeom(), pathsE, 0, "linearGeom(e)")
	check(AggGeom(), pathsF, 0.28, "linearGeom(f)")
	check(AggGeom(), pathsG, 0.24, "linearGeom(g)")

	// The winners per aggregator match the bold entries of the figure.
	if !(AggSum().FoldPaths(pathsG) > AggSum().FoldPaths(pathsF)) {
		t.Error("Sum should rank g above f (popularity wins)")
	}
	if !(AggMean().FoldPaths(pathsF) > AggMean().FoldPaths(pathsG)) {
		t.Error("Mean should rank f above g")
	}
	if !(AggGeom().FoldPaths(pathsF) > AggGeom().FoldPaths(pathsG)) {
		t.Error("Geom should rank f above g")
	}
}

func sortVertexIDs(v []graph.VertexID) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

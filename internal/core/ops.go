package core

import (
	"math"
	"sort"
)

// Combinator is the binary operator ⊗ of equation (8): it folds the raw
// similarities along a 2-hop path u→v→z into one path-similarity
// sim*_v(u,z) = sim(u,v) ⊗ sim(v,z). Fn must be monotonically non-decreasing
// in both arguments (a property test enforces this for the built-ins).
type Combinator struct {
	Name string
	Fn   func(a, b float64) float64
}

// Linear returns the linear combinator α·a + (1−α)·b of Table 1. The paper
// uses α = 0.9 ("found to return the best predictions", Section 5.2).
func Linear(alpha float64) Combinator {
	return Combinator{
		Name: "linear",
		Fn:   func(a, b float64) float64 { return alpha*a + (1-alpha)*b },
	}
}

// Eucl is the Euclidean combinator sqrt(a² + b²) of Table 1.
func Eucl() Combinator {
	return Combinator{Name: "eucl", Fn: func(a, b float64) float64 { return math.Sqrt(a*a + b*b) }}
}

// GeomComb is the geometric-mean combinator sqrt(a·b) of Table 1.
func GeomComb() Combinator {
	return Combinator{Name: "geom", Fn: func(a, b float64) float64 { return math.Sqrt(a * b) }}
}

// SumComb is the plain-sum combinator a + b of Table 1 (used by PPR).
func SumComb() Combinator {
	return Combinator{Name: "sum", Fn: func(a, b float64) float64 { return a + b }}
}

// CountComb is the degenerate combinator of Table 1 that values every path
// at 1, turning the score into a 2-hop path count.
func CountComb() Combinator {
	return Combinator{Name: "count", Fn: func(_, _ float64) float64 { return 1 }}
}

// Aggregator is the multiary operator ⊕ of equations (9)-(10), decomposed as
// the paper requires into a generalized sum ⊕pre (commutative, associative)
// and a normalisation ⊕post taking the folded value and the number of paths.
type Aggregator struct {
	Name string
	Pre  func(a, b float64) float64
	Post func(sigma float64, n int) float64
}

// AggSum is the Sum aggregator of Table 2: ⊕pre = +, ⊕post(σ,n) = σ.
// It is the only aggregator sensitive to candidate popularity (path count).
func AggSum() Aggregator {
	return Aggregator{
		Name: "Sum",
		Pre:  func(a, b float64) float64 { return a + b },
		Post: func(sigma float64, _ int) float64 { return sigma },
	}
}

// AggMean is the Mean aggregator of Table 2: ⊕pre = +, ⊕post(σ,n) = σ/n.
func AggMean() Aggregator {
	return Aggregator{
		Name: "Mean",
		Pre:  func(a, b float64) float64 { return a + b },
		Post: func(sigma float64, n int) float64 {
			if n == 0 {
				return 0
			}
			return sigma / float64(n)
		},
	}
}

// AggGeom is the Geom aggregator of Table 2: ⊕pre = ×, ⊕post(σ,n) = σ^(1/n).
// A single zero-similarity path zeroes the whole score, the sensitivity the
// paper observes in Figure 3 (vertex e) and Section 5.7.
func AggGeom() Aggregator {
	return Aggregator{
		Name: "Geom",
		Pre:  func(a, b float64) float64 { return a * b },
		Post: func(sigma float64, n int) float64 {
			if n == 0 {
				return 0
			}
			return math.Pow(sigma, 1/float64(n))
		},
	}
}

// FoldPaths applies the aggregator to a set of path-similarities: it sorts a
// copy of the values and folds ⊕pre in ascending order before applying
// ⊕post. The sort makes aggregation bit-deterministic regardless of the
// order paths were discovered in — the distributed engine and the serial
// reference therefore produce identical floats, and step 3's table may hand
// a candidate's paths over in any order. (⊕pre is commutative, so sorting
// does not change the defined result, only the floating-point rounding
// path.) The step-3 kernels fold through foldGroup, which is this function
// with the sort skipped for one or two values, ordered by the sort's own
// comparison.
func (a Aggregator) FoldPaths(values []float64) float64 {
	return a.FoldPathsInPlace(append([]float64(nil), values...))
}

// FoldPathsInPlace is FoldPaths without the defensive copy: it sorts values
// in place and folds them. Callers that own the buffer (the per-worker
// Scratch of the step functions) use it to keep aggregation allocation-free;
// the result is bit-identical to FoldPaths.
func (a Aggregator) FoldPathsInPlace(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	sigma := values[0]
	for _, v := range values[1:] {
		sigma = a.Pre(sigma, v)
	}
	return a.Post(sigma, len(values))
}

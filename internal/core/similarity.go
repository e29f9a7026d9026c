// Package core implements SNAPLE, the paper's contribution: a link-prediction
// scoring framework built from a raw vertex similarity, a path combinator ⊗
// and a path aggregator ⊕ (Section 3). Algorithm 2 is written once, as one
// kernel set over rows (steps.go); every substrate is a scheduler of it:
// StepRunner for the serial reference loop (the test oracle), the parallel
// shared-memory backend and the supervised features; DistPartition, the GAS
// supersteps of Section 4, for the wire worker and the simulated cluster.
// The package also contains the BASELINE comparison system (a direct 2-hop
// implementation of Algorithm 1).
package core

import (
	"slices"

	"snaple/internal/graph"
)

// Similarity is the raw metric sim(u,v) = f(Γ̂(u), Γ̂(v)) of equation (6).
// Implementations receive the (possibly truncated) sorted neighbour lists of
// both endpoints plus their full out-degrees, which lets degree-based metrics
// (PPR's 1/|Γ(v)|) coexist with set-based ones.
type Similarity interface {
	// Name identifies the metric in score specs and reports.
	Name() string
	// Score computes sim(u,v). uNbrs and vNbrs are sorted ascending and must
	// be treated as read-only.
	Score(uNbrs, vNbrs []graph.VertexID, uDeg, vDeg int) float64
}

// containsVertex binary-searches a sorted vertex list.
func containsVertex(nbrs []graph.VertexID, v graph.VertexID) bool {
	_, ok := slices.BinarySearch(nbrs, v)
	return ok
}

// gallopRatio is the length skew beyond which intersectionSize switches from
// the linear merge to galloping probes. Power-law degree distributions make
// heavily skewed pairs (a low-degree vertex against a hub) the common case,
// where galloping turns O(|a|+|b|) into O(|short|·log|long|).
const gallopRatio = 16

// intersectionSize counts common elements of two sorted ascending lists,
// choosing between a linear merge and galloping search by length skew. Both
// paths return identical counts (a property test enforces this).
func intersectionSize(a, b []graph.VertexID) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	if len(b) >= gallopRatio*len(a) {
		return intersectGallop(a, b)
	}
	return intersectMerge(a, b)
}

// intersectMerge is the classic two-pointer merge count.
func intersectMerge(a, b []graph.VertexID) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// intersectGallop counts short ∩ long by exponential-then-binary probing into
// the suffix of long that can still contain matches. The probe cursor only
// moves forward, so the whole intersection costs O(|short|·log|long|).
func intersectGallop(short, long []graph.VertexID) int {
	n, lo := 0, 0
	for _, x := range short {
		// Exponential search: find a window (lo+step/2, lo+step] whose upper
		// bound is >= x (or the end of long).
		step := 1
		for lo+step <= len(long) && long[lo+step-1] < x {
			step *= 2
		}
		i, j := lo+step/2, lo+step
		if j > len(long) {
			j = len(long)
		}
		// Binary search for the first index in [i, j) with long[idx] >= x.
		for i < j {
			mid := int(uint(i+j) >> 1)
			if long[mid] < x {
				i = mid + 1
			} else {
				j = mid
			}
		}
		if i == len(long) {
			break
		}
		if long[i] == x {
			n++
			i++
		}
		lo = i
	}
	return n
}

// Jaccard is |Γ(u) ∩ Γ(v)| / |Γ(u) ∪ Γ(v)|, the paper's default raw
// similarity (Salton & McGill).
type Jaccard struct{}

// Name implements Similarity.
func (Jaccard) Name() string { return "jaccard" }

// Score implements Similarity.
func (Jaccard) Score(uNbrs, vNbrs []graph.VertexID, _, _ int) float64 {
	inter := intersectionSize(uNbrs, vNbrs)
	union := len(uNbrs) + len(vNbrs) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// InverseDegree is 1/|Γ(v)|, the per-edge transition probability of a random
// walk; combined with the sum combinator and Sum aggregator it yields the
// paper's PPR-like score (Table 3, grey row).
type InverseDegree struct{}

// Name implements Similarity.
func (InverseDegree) Name() string { return "invdeg" }

// Score implements Similarity.
func (InverseDegree) Score(_, _ []graph.VertexID, _, vDeg int) float64 {
	if vDeg <= 0 {
		return 0
	}
	return 1 / float64(vDeg)
}

var (
	_ Similarity = Jaccard{}
	_ Similarity = InverseDegree{}
)

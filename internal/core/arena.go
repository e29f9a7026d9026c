package core

import (
	"slices"

	"snaple/internal/graph"
)

// Arena is flat CSR-style storage for per-vertex variable-length rows: one
// offsets table plus one shared backing array, mirroring the graph's own
// adjacency layout (SNAP's lesson that compact flat representations, not
// pointer-rich ones, are what scale single-machine analytics). Each step of
// Algorithm 2 materialises its per-vertex output — truncated neighbourhoods,
// relay lists, 2-hop path lists — in one Arena instead of a slice of
// per-vertex slices, so a full pass over the graph costs two allocations
// (offsets + data) rather than one small GC-tracked object per vertex.
//
// Build protocol (two passes, mirroring counting sort):
//
//	a := NewArena[T](n)
//	for u := range n { a.SetCount(u, countFor(u)) }   // pass 1: row sizes
//	a.FinishCounts()                                  // prefix sum + backing array
//	for u := range n { fillInto(a.Row(u)) }           // pass 2: write rows
//
// SetCount calls for distinct vertices touch disjoint offsets and Row
// returns disjoint sub-slices, so both passes parallelise over vertex ranges
// with no synchronisation beyond a barrier around FinishCounts.
//
// An arena comes in two forms behind the same methods. NewArena is
// identity-indexed: row u sits at offset slot u, the layout of a full pass
// (and of a scoped pass whose closure is a sizeable share of the graph).
// NewRankArena is rank-indexed: it holds rows only for a sorted member list
// and row u sits at u's position in that list, so a query-scoped pass
// allocates and touches O(closure) instead of O(|V|). Vertices outside the
// member list have an empty row, exactly as out-of-scope vertices have in
// the identity form, so the step kernels cannot tell the two apart.
type Arena[T any] struct {
	off  []int64 // len rows+1; data[off[i]:off[i+1]] is slot i's row after FinishCounts
	data []T
	// ranked selects the rank-indexed form: slot i belongs to members[i].
	// A flag, not members != nil — an empty member list is a legitimate
	// arena with no rows.
	ranked  bool
	members []graph.VertexID
}

// NewArena returns an identity-indexed arena with n empty rows, ready for
// the count pass.
func NewArena[T any](n int) *Arena[T] {
	return &Arena[T]{off: make([]int64, n+1)}
}

// NewRankArena returns a rank-indexed arena with one empty row per member,
// ready for the count pass. members must be sorted ascending without
// repeats; the arena keeps the slice and never modifies it.
func NewRankArena[T any](members []graph.VertexID) *Arena[T] {
	return &Arena[T]{off: make([]int64, len(members)+1), ranked: true, members: members}
}

// Ranked reports whether the arena is rank-indexed.
func (a *Arena[T]) Ranked() bool { return a.ranked }

// NumRows returns the number of rows.
func (a *Arena[T]) NumRows() int { return len(a.off) - 1 }

// slot resolves u to its offset slot in the rank-indexed form.
func (a *Arena[T]) slot(u graph.VertexID) (int, bool) {
	return slices.BinarySearch(a.members, u)
}

// SetCount records row u's length during the count pass. Concurrent calls
// for distinct vertices are safe. A vertex outside a rank-indexed arena's
// member list can only be given the empty row it already has.
func (a *Arena[T]) SetCount(u graph.VertexID, c int) {
	i := int(u)
	if a.ranked {
		var ok bool
		if i, ok = a.slot(u); !ok {
			if c != 0 {
				panic("core: Arena.SetCount on a vertex outside the arena's member list")
			}
			return
		}
	}
	a.off[i+1] = int64(c)
}

// FinishCounts turns the recorded counts into offsets (an exclusive prefix
// sum) and allocates the backing array. Call exactly once, between the
// count and fill pass.
func (a *Arena[T]) FinishCounts() {
	var total int64
	for i := 1; i < len(a.off); i++ {
		total += a.off[i]
		a.off[i] = total
	}
	a.data = make([]T, total)
}

// Row returns row u, backed by the shared array. After FinishCounts the fill
// pass writes it; rows of distinct vertices never overlap. Empty rows —
// including every row outside a rank-indexed arena's member list — are
// empty (never nil) slices.
func (a *Arena[T]) Row(u graph.VertexID) []T {
	if a.ranked {
		return a.rankRow(u)
	}
	return a.data[a.off[u]:a.off[u+1]]
}

func (a *Arena[T]) rankRow(u graph.VertexID) []T {
	i, ok := a.slot(u)
	if !ok {
		return a.data[:0]
	}
	return a.data[a.off[i]:a.off[i+1]]
}

// Total returns the summed length of all rows (valid after FinishCounts).
func (a *Arena[T]) Total() int { return len(a.data) }

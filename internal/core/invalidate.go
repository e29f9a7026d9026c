package core

import "snaple/internal/graph"

// Frontier-aware cache invalidation.
//
// A cached prediction row for source s was computed from the out-rows (and
// out-degrees) of exactly the vertices in Trunc(s), the frontier closure of
// radius 2 around s (see the dependency derivation at the top of
// frontier.go). A mutation batch changes only the out-rows of the mutated
// edges' *source* endpoints, so the cached row for s can change only if one
// of those endpoints lies inside s's closure — under the pre-mutation view
// (which computed the cached row) or the post-mutation view (which a fresh
// run would use). Everything else is provably untouched and may keep
// serving from cache.
//
// DirtySources inverts that membership test for a whole cache at once:
// instead of recomputing Trunc(s) per cached source, it runs the closure
// walk in reverse — a breadth-first walk over in-edges, seeded at the
// mutated sources, for two hops. To cover both the old and the new view
// with one walk it uses their union: the post-mutation view's in-edges plus
// the reversed edges the batch removed (the only edges the old view had and
// the new one lacks; edges the batch added are already in the new view).
// Paths that mix old-only and new-only edges make this a slight
// overapproximation, which only ever invalidates more — never serves stale.

// DirtySources returns the set of vertices whose cached predictions a
// mutation batch may have changed: every vertex within `depth` reverse hops
// (the closure's radius, 2) of a mutated edge's source endpoint, in the
// union of the old and new graphs. g is the post-mutation view and must have
// in-edges; added and removed are the batch as applied (out-of-range
// endpoints are ignored). An empty batch returns an empty set. Like a
// frontier closure the set is a sorted list sized by what the walk reaches,
// promoted to a bitmap once that passes 1/bitmapShare of the graph; while
// it is a list the walk deduplicates each hop but may re-expand a vertex an
// earlier hop already reached, which changes nothing but a little work.
func DirtySources(g graph.View, added, removed []graph.Edge, depth int) *VertexSet {
	n := g.NumVertices()
	dirty := setBuilder{n: n}
	// level holds the vertices first reached at the current hop; hop 0 is
	// the mutated edges' source endpoints.
	var level []graph.VertexID
	// Reversed removed edges: present in the old view only, so the new
	// view's in-rows no longer carry them.
	var revRemoved map[graph.VertexID][]graph.VertexID
	for _, e := range added {
		if int(e.Src) < n && int(e.Dst) < n {
			level = append(level, e.Src)
		}
	}
	for _, e := range removed {
		if int(e.Src) < n && int(e.Dst) < n {
			level = append(level, e.Src)
			if revRemoved == nil {
				revRemoved = make(map[graph.VertexID][]graph.VertexID, len(removed))
			}
			revRemoved[e.Dst] = append(revRemoved[e.Dst], e.Src)
		}
	}
	for hop := 0; len(level) > 0; hop++ {
		level = dirty.addFresh(level)
		if hop == depth {
			break
		}
		var next []graph.VertexID
		for _, u := range level {
			next = g.AppendInRow(next, u)
			next = append(next, revRemoved[u]...)
		}
		level = next
	}
	return dirty.finish()
}

package graph

import (
	"fmt"
	"runtime"
)

// EdgeStream yields the edges of shard (one of shards contiguous,
// disjoint slices of some fixed underlying edge sequence) to yield, in a
// deterministic order. BuildStream replays the stream twice, so the same
// (shard, shards) must produce the same edges on every call — which is
// exactly what hash-keyed generators (gen.PowerLawStream) and offset-range
// file readers provide for free.
type EdgeStream func(shard, shards int, yield func(u, v VertexID))

// BuildStream assembles a Digraph from a replayable edge stream through
// assembleCSR, the counting sort Builder uses, but with no edge-list
// buffer at all: each histogram group drives one shard of the stream, the
// count pass reads degrees straight off it and the scatter pass replays
// it. Peak memory is the CSR being built plus the per-group histograms —
// 10^9-edge inputs stream through without ever holding 10^9 Edge structs.
//
// Self-loops are dropped and duplicates are removed, matching Builder. An
// out-of-range endpoint is an error naming the first such edge in stream
// order, with Builder's message. workers ≤ 0 means GOMAXPROCS; the stream
// must be safe to run concurrently for distinct shards.
func BuildStream(numVertices, workers int, stream EdgeStream) (*Digraph, error) {
	n := numVertices
	if n < 0 {
		return nil, fmt.Errorf("graph: stream-build with %d vertices", n)
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return assembleCSR(n, workers, workers, false,
		func(g, groups int, row []int64) error {
			var err error
			stream(g, groups, func(u, v VertexID) {
				if int(u) >= n || int(v) >= n {
					if err == nil {
						err = edgeOutOfRange(u, v, n)
					}
					return
				}
				if u != v {
					row[u]++
				}
			})
			return err
		},
		func(g, groups int, cur []int64, adj []VertexID) error {
			stream(g, groups, func(u, v VertexID) {
				if u != v {
					adj[cur[u]] = v
					cur[u]++
				}
			})
			return nil
		})
}

// Package partition owns the vertex cut (as in PowerGraph/GraphLab): where
// each edge goes, and what the partitions that result hold.
//
// In the GAS engines the paper targets, edges — not vertices — are the unit
// of placement: a vertex whose edges land on several partitions is
// replicated there (one master, several mirrors), and the replication factor
// determines the synchronisation traffic the engine pays per superstep.
// A Strategy (hash-based or greedy) decides the placement as an Assignment.
// Place turns an Assignment into the cut's placement: each vertex's replica
// and source rows and its master, elected by ElectMaster — what a
// coordinator of resident workers routes by. NewCut builds the partitions
// themselves over that placement, one graph.ShardFile each, and is the only
// builder of shards: the sim engine, a pack and a fleet that ships or serves
// its own shards all run over them. ComputeStats evaluates an Assignment
// independently of the cut (replication factor, balance) for the ablation
// benches.
package partition

import (
	"fmt"
	"math"
	mathbits "math/bits"

	"snaple/internal/graph"
	"snaple/internal/randx"
)

// Assignment maps each edge (in the graph's CSR iteration order) to a
// partition in [0, Parts).
type Assignment struct {
	Parts  int
	EdgeTo []int32
}

// Strategy computes an Assignment for a graph.
type Strategy interface {
	// Name identifies the strategy in reports and bench labels.
	Name() string
	// Partition assigns every edge of g to one of parts partitions.
	Partition(g graph.View, parts int) (Assignment, error)
}

// ByName returns the strategy a name from Name() denotes, seeding the
// hash-based ones — the inverse mapping a fleet manifest (which records the
// cut by name and seed) is decoded with. "" means the default, hash-edge.
func ByName(name string, seed uint64) (Strategy, error) {
	switch name {
	case "", "hash-edge":
		return HashEdge{Seed: seed}, nil
	case "hash-source":
		return HashSource{Seed: seed}, nil
	case "greedy":
		return Greedy{}, nil
	default:
		return nil, fmt.Errorf("partition: unknown strategy %q (hash-edge|hash-source|greedy)", name)
	}
}

func validate(g graph.View, parts int) error {
	if g == nil {
		return fmt.Errorf("partition: nil graph")
	}
	if parts < 1 {
		return fmt.Errorf("partition: parts=%d, need >= 1", parts)
	}
	return nil
}

// HashEdge places each edge by a hash of both endpoints — the "random
// vertex-cut" placement, GraphLab's default. Replication grows with degree
// but load balance is near perfect.
type HashEdge struct {
	Seed uint64
}

// Name implements Strategy.
func (HashEdge) Name() string { return "hash-edge" }

// Partition implements Strategy.
func (s HashEdge) Partition(g graph.View, parts int) (Assignment, error) {
	if err := validate(g, parts); err != nil {
		return Assignment{}, err
	}
	a := Assignment{Parts: parts, EdgeTo: make([]int32, g.NumEdges())}
	i := 0
	g.ForEachEdge(func(u, v graph.VertexID) {
		a.EdgeTo[i] = int32(randx.Uint64n(uint64(parts), s.Seed, uint64(u), uint64(v)))
		i++
	})
	return a, nil
}

// HashSource places each edge by a hash of its source vertex, so a vertex's
// whole out-neighbourhood lives on one partition (1D edge partitioning).
// Gather over out-edges then needs no cross-partition partial sums for the
// source, at the cost of load skew on high-degree vertices.
type HashSource struct {
	Seed uint64
}

// Name implements Strategy.
func (HashSource) Name() string { return "hash-source" }

// Partition implements Strategy.
func (s HashSource) Partition(g graph.View, parts int) (Assignment, error) {
	if err := validate(g, parts); err != nil {
		return Assignment{}, err
	}
	a := Assignment{Parts: parts, EdgeTo: make([]int32, g.NumEdges())}
	i := 0
	g.ForEachEdge(func(u, _ graph.VertexID) {
		a.EdgeTo[i] = int32(randx.Uint64n(uint64(parts), s.Seed, uint64(u)))
		i++
	})
	return a, nil
}

// Greedy implements the PowerGraph greedy vertex-cut heuristic: each edge is
// placed to minimise new vertex replicas, breaking ties towards the least
// loaded partition. A partition that holds greedySlack times its fair share
// of the edges is full and takes no more: without the cap a source-ordered
// power-law stream, every edge of which touches a partition already holding
// one of its endpoints, would pile every edge onto the first partition. It
// is sequential and deterministic.
type Greedy struct{}

// greedySlack is how far above |E|/parts a greedy partition may fill.
const greedySlack = 1.05

// Name implements Strategy.
func (Greedy) Name() string { return "greedy" }

// replicaSet tracks, per vertex, the bitset of partitions holding a replica
// (words-per-vertex flat layout, any partition count).
type replicaSet struct {
	words int
	bits  []uint64
}

func newReplicaSet(vertices, parts int) *replicaSet {
	words := (parts + 63) / 64
	return &replicaSet{words: words, bits: make([]uint64, vertices*words)}
}

func (r *replicaSet) of(v graph.VertexID) []uint64 {
	return r.bits[int(v)*r.words : (int(v)+1)*r.words]
}

func (r *replicaSet) set(v graph.VertexID, p int32) {
	r.of(v)[p/64] |= 1 << uint(p%64)
}

// Partition implements Strategy.
func (Greedy) Partition(g graph.View, parts int) (Assignment, error) {
	if err := validate(g, parts); err != nil {
		return Assignment{}, err
	}
	a := Assignment{Parts: parts, EdgeTo: make([]int32, g.NumEdges())}
	replicas := newReplicaSet(g.NumVertices(), parts)
	load := make([]int64, parts)
	capacity := int64(math.Ceil(greedySlack * float64(g.NumEdges()) / float64(parts)))
	words := replicas.words
	both, either, all := make([]uint64, words), make([]uint64, words), make([]uint64, words)
	for p := 0; p < parts; p++ {
		all[p/64] |= 1 << uint(p%64)
	}

	// leastLoaded returns the least-loaded partition among the set bits of
	// mask that is not full, or -1 when there is none.
	leastLoaded := func(mask []uint64) int32 {
		best, bestLoad := int32(-1), capacity
		for w, bits := range mask {
			for bits != 0 {
				p := int32(w*64) + int32(mathbits.TrailingZeros64(bits))
				bits &= bits - 1
				if load[p] < bestLoad {
					best, bestLoad = p, load[p]
				}
			}
		}
		return best
	}

	// The rules in order, each falling through to the next when every
	// partition it names is full: a partition that already has both
	// endpoints; one that has either; the least loaded overall. A partition
	// below capacity always remains, as parts·capacity > |E|.
	i := 0
	g.ForEachEdge(func(u, v graph.VertexID) {
		ru, rv := replicas.of(u), replicas.of(v)
		for w := 0; w < words; w++ {
			both[w], either[w] = ru[w]&rv[w], ru[w]|rv[w]
		}
		p := leastLoaded(both)
		if p < 0 {
			p = leastLoaded(either)
		}
		if p < 0 {
			p = leastLoaded(all)
		}
		a.EdgeTo[i] = p
		replicas.set(u, p)
		replicas.set(v, p)
		load[p]++
		i++
	})
	return a, nil
}

// Stats describes the quality of an assignment.
type Stats struct {
	Parts int
	// ReplicationFactor is the average number of partitions hosting each
	// non-isolated vertex; 1.0 is the (unreachable) ideal.
	ReplicationFactor float64
	// Balance is max partition load over mean partition load; 1.0 is perfect.
	Balance float64
	// MaxLoad is the largest number of edges on one partition.
	MaxLoad int64
}

// ComputeStats evaluates an assignment against its graph.
func ComputeStats(g graph.View, a Assignment) Stats {
	load := make([]int64, a.Parts)
	seen := make(map[int64]struct{}) // (vertex<<20 | part) pairs; parts < 2^20
	record := func(v graph.VertexID, p int32) {
		seen[int64(v)<<20|int64(p)] = struct{}{}
	}
	i := 0
	g.ForEachEdge(func(u, v graph.VertexID) {
		p := a.EdgeTo[i]
		load[p]++
		record(u, p)
		record(v, p)
		i++
	})
	touched := make(map[graph.VertexID]struct{})
	g.ForEachEdge(func(u, v graph.VertexID) {
		touched[u] = struct{}{}
		touched[v] = struct{}{}
	})
	st := Stats{Parts: a.Parts}
	if len(touched) > 0 {
		st.ReplicationFactor = float64(len(seen)) / float64(len(touched))
	}
	var sum, max int64
	for _, l := range load {
		sum += l
		if l > max {
			max = l
		}
	}
	st.MaxLoad = max
	if sum > 0 {
		st.Balance = float64(max) * float64(a.Parts) / float64(sum)
	}
	return st
}

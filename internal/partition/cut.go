package partition

import (
	"fmt"
	"math/bits"

	"snaple/internal/graph"
	"snaple/internal/randx"
)

// Cut is a vertex cut built from an Assignment, in two layers. Its placement
// is what a coordinator routes by: each vertex's replica row — the shards it
// is replicated on, in ascending order, and its local index in each — the
// shard holding its master copy, and the shards holding its out-edges. Its
// Shards are the partitions themselves, as the graph.ShardFiles a pack
// writes, a ship carries, a worker holds and the sim runs over: Place builds
// the placement alone, NewCut both.
//
// Every shard is complete except for its Fingerprint, which identifies a
// fleet rather than a cut: a fleet stamps it, the sim has no use for it.
type Cut struct {
	Shards   []*graph.ShardFile // nil on a placement (Place)
	start    []int              // v's replicas are rows start[v] up to start[v+1]
	hosts    []int32            // each replica's shard, ascending within a vertex
	local    []int32            // each replica's index in its shard's Locals
	master   []int32            // per vertex: its master's shard, -1 when it has no edge
	srcStart []int              // v's source shards are srcs[srcStart[v]:srcStart[v+1]]
	srcs     []int32            // per vertex, the shards holding its out-edges, ascending
	// present counts the vertices with a master.
	present int
}

// ElectMaster is the vertex cut's one master election: a keyed draw among
// v's hosts, given in ascending shard order. It is deterministic in (hosts,
// seed, v), so every builder of a cut and every scoped re-election among a
// subset of the hosts agree without talking to each other. Placement never
// changes results, only where each apply runs.
func ElectMaster(hosts []int32, seed uint64, v graph.VertexID) int32 {
	return hosts[randx.Uint64n(uint64(len(hosts)), seed, uint64(v), 0xA5)]
}

// Place computes the placement of the cut a assigns g's edges to — replica
// rows, masters elected with ElectMaster, source rows — without building any
// shard: the rows a coordinator of resident workers routes by, in one pass
// over g's edges.
func Place(g graph.View, a Assignment, seed uint64) (*Cut, error) {
	if err := validate(g, a.Parts); err != nil {
		return nil, err
	}
	if len(a.EdgeTo) != g.NumEdges() {
		return nil, fmt.Errorf("partition: assignment covers %d edges, graph has %d", len(a.EdgeTo), g.NumEdges())
	}
	n, parts := g.NumVertices(), a.Parts
	for i, p := range a.EdgeTo {
		if p < 0 || int(p) >= parts {
			return nil, fmt.Errorf("partition: edge %d assigned to partition %d of %d", i, p, parts)
		}
	}

	// Two bitmaps per shard: the vertices its edges touch and the sources
	// among them. Scanned in order, a shard's touched bitmap yields its
	// Locals already sorted, so a vertex's local index is its rank there.
	// The bitmaps take 2·parts·n bits, below the 64 bits per edge a bucketed
	// copy of the edges would, while parts stays under 32 times the mean
	// degree.
	words := (n + 63) / 64
	touched, source := make([]uint64, parts*words), make([]uint64, parts*words)
	i := 0
	g.ForEachEdge(func(u, v graph.VertexID) {
		o := int(a.EdgeTo[i]) * words
		bit := uint64(1) << (u & 63)
		touched[o+int(u>>6)] |= bit
		source[o+int(u>>6)] |= bit
		touched[o+int(v>>6)] |= 1 << (v & 63)
		i++
	})
	c := &Cut{master: make([]int32, n)}
	c.start, c.hosts, c.local = rows(touched, parts, n)
	c.srcStart, c.srcs, _ = rows(source, parts, n)

	for v := range c.master {
		hosts, _ := c.Replicas(graph.VertexID(v))
		if len(hosts) == 0 {
			c.master[v] = -1
			continue
		}
		c.master[v] = ElectMaster(hosts, seed, graph.VertexID(v))
		c.present++
	}
	return c, nil
}

// rows turns parts per-shard bitmaps over n vertices into one row per
// vertex of the shards whose bitmap holds it, by count, prefix and fill:
// start holds the counts, turns into each row's first slot, serves as the
// fill cursor (ending at each row's last slot + 1) and shifts back into
// place. Walking the shards in order fills every row in ascending shard
// order, and walking a shard's bits in order numbers its vertices by rank:
// rank[k] is row entry k's index among its shard's set bits.
func rows(set []uint64, parts, n int) (start []int, shard, rank []int32) {
	words := (n + 63) / 64
	start = make([]int, n+1)
	for p := range parts {
		for w, x := range set[p*words : (p+1)*words] {
			for ; x != 0; x &= x - 1 {
				start[w<<6|bits.TrailingZeros64(x)]++
			}
		}
	}
	total := 0
	for v, k := range start[:n] {
		start[v] = total
		total += k
	}
	shard, rank = make([]int32, total), make([]int32, total)
	for p := range parts {
		j := int32(0)
		for w, x := range set[p*words : (p+1)*words] {
			for ; x != 0; x &= x - 1 {
				v := w<<6 | bits.TrailingZeros64(x)
				k := start[v]
				shard[k], rank[k] = int32(p), j
				start[v]++
				j++
			}
		}
	}
	copy(start[1:], start[:n])
	start[0] = 0
	return start, shard, rank
}

// NewCut is Place plus the shards: each shard's Locals are the replica rows
// grouped by shard, and every edge is written in the view's (src, dst) order
// with its endpoints' local indices read off their rows. Every shard
// satisfies graph.ShardFile.Validate by construction: Locals ascend, and
// EdgeSrc never decreases. Roles mark each vertex's master copy RoleMaster,
// with RoleRemote when the vertex has mirrors, and leave the mirrors 0.
func NewCut(g graph.View, a Assignment, seed uint64) (*Cut, error) {
	c, err := Place(g, a, seed)
	if err != nil {
		return nil, err
	}
	n, parts := g.NumVertices(), a.Parts
	count, edges := make([]int, parts), make([]int, parts)
	for _, p := range c.hosts {
		count[p]++
	}
	for _, p := range a.EdgeTo {
		edges[p]++
	}
	c.Shards = make([]*graph.ShardFile, parts)
	for p := range parts {
		c.Shards[p] = &graph.ShardFile{
			Shard: p, Shards: parts, NumVertices: n,
			Locals: make([]graph.VertexID, count[p]), Deg: make([]int32, count[p]),
			EdgeSrc: make([]int32, 0, edges[p]), EdgeDst: make([]int32, 0, edges[p]),
			Roles: make([]uint8, count[p]),
		}
	}
	for v, m := range c.master {
		if m < 0 {
			continue
		}
		u := graph.VertexID(v)
		hosts, local := c.Replicas(u)
		deg := int32(g.OutDegree(u))
		for k, p := range hosts {
			sf, j := c.Shards[p], local[k]
			sf.Locals[j], sf.Deg[j] = u, deg
			if p == m {
				sf.Roles[j] = graph.RoleMaster
				if len(hosts) > 1 {
					sf.Roles[j] |= graph.RoleRemote
				}
			}
		}
	}
	i := 0
	g.ForEachEdge(func(u, v graph.VertexID) {
		p := a.EdgeTo[i]
		i++
		sf := c.Shards[p]
		sf.EdgeSrc = append(sf.EdgeSrc, c.localOf(p, u))
		sf.EdgeDst = append(sf.EdgeDst, c.localOf(p, v))
	})
	return c, nil
}

// localOf is v's index in shard p's Locals, which must host v: a binary
// search of v's replica row.
func (c *Cut) localOf(p int32, v graph.VertexID) int32 {
	lo, hi := c.start[v], c.start[v+1]
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.hosts[m] < p {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return c.local[lo]
}

// NumVertices is the global vertex count of the graph the cut was built from.
func (c *Cut) NumVertices() int { return len(c.master) }

// Replicas returns the shards hosting v, ascending, and v's index in each
// one's Locals; both are empty when v has no edge. The rows are the cut's
// own and must not be written.
func (c *Cut) Replicas(v graph.VertexID) (shards, locals []int32) {
	lo, hi := c.start[v], c.start[v+1]
	return c.hosts[lo:hi:hi], c.local[lo:hi:hi]
}

// Sources returns the shards holding v's out-edges, ascending: the hosts
// whose gather sees v as a source. The row is the cut's own and must not be
// written.
func (c *Cut) Sources(v graph.VertexID) []int32 {
	lo, hi := c.srcStart[v], c.srcStart[v+1]
	return c.srcs[lo:hi:hi]
}

// Master returns the shard holding v's master copy, or -1 when v has no edge.
func (c *Cut) Master(v graph.VertexID) int32 { return c.master[v] }

// ReplicationFactor is the average number of replicas per vertex that has at
// least one edge: the traffic driver of a vertex-cut engine, 1 at best and at
// most the shard count.
func (c *Cut) ReplicationFactor() float64 {
	if c.present == 0 {
		return 0
	}
	return float64(len(c.hosts)) / float64(c.present)
}

package partition

import (
	"fmt"
	"math/bits"

	"snaple/internal/graph"
	"snaple/internal/randx"
)

// Cut is a vertex cut built from an Assignment: the partitions themselves,
// as the graph.ShardFiles a pack writes, a ship carries, a worker holds and
// the sim runs over, plus each vertex's replica row — the shards it is
// replicated on, in ascending order, its local index in each, and the one
// that holds its master copy.
//
// Every shard is complete except for its Fingerprint, which identifies a
// fleet rather than a cut: a fleet stamps it, the sim has no use for it.
type Cut struct {
	Shards []*graph.ShardFile
	start  []int   // v's replicas are rows start[v] up to start[v+1]
	hosts  []int32 // each replica's shard, ascending within a vertex
	local  []int32 // each replica's index in its shard's Locals
	master []int32 // per vertex: its master's shard, -1 when it has no edge
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

// NewCut places g's edges on the shards a assigns them to and elects each
// replicated vertex's master with ElectMaster. Every shard satisfies
// graph.ShardFile.Validate by construction: Locals ascend, and edges keep the
// view's (src, dst) order, so EdgeSrc never decreases. IsMaster marks each
// vertex's master copy; HasRemote is set on a master copy whose vertex has
// mirrors, and never on a mirror.
func NewCut(g graph.View, a Assignment, seed uint64) (*Cut, error) {
	if err := validate(g, a.Parts); err != nil {
		return nil, err
	}
	if len(a.EdgeTo) != g.NumEdges() {
		return nil, fmt.Errorf("partition: assignment covers %d edges, graph has %d", len(a.EdgeTo), g.NumEdges())
	}
	n, parts := g.NumVertices(), a.Parts
	edges := make([]int, parts)
	for i, p := range a.EdgeTo {
		if p < 0 || int(p) >= parts {
			return nil, fmt.Errorf("partition: edge %d assigned to partition %d of %d", i, p, parts)
		}
		edges[p]++
	}

	// One bitmap per shard of the vertices its edges touch. Scanned in order
	// it yields the shard's Locals already sorted, and a vertex's local index
	// is its rank: the set bits before it, counted per word once. The bitmaps
	// take parts·n bits, below the 64 bits per edge a bucketed copy of the
	// edges would, while parts stays under 64 times the mean degree.
	words := (n + 63) / 64
	set := make([]uint64, parts*words)
	i := 0
	g.ForEachEdge(func(u, v graph.VertexID) {
		b := set[int(a.EdgeTo[i])*words:]
		b[u>>6] |= 1 << (u & 63)
		b[v>>6] |= 1 << (v & 63)
		i++
	})
	rank := make([]int32, parts*words)
	c := &Cut{Shards: make([]*graph.ShardFile, parts), start: make([]int, n+1), master: make([]int32, n)}
	for p := range parts {
		b, r := set[p*words:(p+1)*words], rank[p*words:(p+1)*words]
		count := 0
		for w, x := range b {
			r[w] = int32(count)
			count += bits.OnesCount64(x)
		}
		locals := make([]graph.VertexID, 0, count)
		for w, x := range b {
			for ; x != 0; x &= x - 1 {
				locals = append(locals, graph.VertexID(w<<6|bits.TrailingZeros64(x)))
			}
		}
		deg := make([]int32, count)
		for j, v := range locals {
			deg[j] = int32(g.OutDegree(v))
			c.start[v]++
		}
		c.Shards[p] = &graph.ShardFile{
			Shard: p, Shards: parts, NumVertices: n,
			Locals: locals, Deg: deg,
			EdgeSrc: make([]int32, 0, edges[p]), EdgeDst: make([]int32, 0, edges[p]),
			IsMaster: make([]bool, count), HasRemote: make([]bool, count),
		}
	}
	localOf := func(p int, v graph.VertexID) int32 {
		w := p*words + int(v>>6)
		return rank[w] + int32(bits.OnesCount64(set[w]&(1<<(v&63)-1)))
	}
	i = 0
	g.ForEachEdge(func(u, v graph.VertexID) {
		p := int(a.EdgeTo[i])
		i++
		sf := c.Shards[p]
		sf.EdgeSrc = append(sf.EdgeSrc, localOf(p, u))
		sf.EdgeDst = append(sf.EdgeDst, localOf(p, v))
	})

	// Replica rows by count, prefix and fill: start holds the counts, turns
	// into each row's first slot, serves as the fill cursor (ending at each
	// row's last slot + 1) and shifts back into place. Walking the shards in
	// order fills every row in ascending shard order.
	total := 0
	for v, k := range c.start[:n] {
		c.start[v] = total
		total += k
	}
	c.hosts, c.local = make([]int32, total), make([]int32, total)
	for p, sf := range c.Shards {
		for j, v := range sf.Locals {
			k := c.start[v]
			c.hosts[k], c.local[k] = int32(p), int32(j)
			c.start[v]++
		}
	}
	copy(c.start[1:], c.start[:n])
	c.start[0] = 0

	for v := range c.master {
		hosts, local := c.Replicas(graph.VertexID(v))
		if len(hosts) == 0 {
			c.master[v] = -1
			continue
		}
		m := ElectMaster(hosts, seed, graph.VertexID(v))
		k := 0
		for hosts[k] != m {
			k++
		}
		sf := c.Shards[m]
		sf.IsMaster[local[k]] = true
		sf.HasRemote[local[k]] = len(hosts) > 1
		c.master[v] = m
		c.present++
	}
	return c, nil
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

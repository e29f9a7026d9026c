package partition

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"snaple/internal/gen"
	"snaple/internal/graph"
	"snaple/internal/randx"
)

// refCut is what referenceCut builds: the shards, and per vertex its hosts,
// the hosts its master gathers from and its master (-1 for none).
type refCut struct {
	shards []*graph.ShardFile
	hosts  [][]int32
	gather [][]int32
	master []int32
	rf     float64
}

// referenceCut is the construction the sim engine ran before NewCut existed,
// kept as NewCut's oracle: per-partition edge buckets, a map index per
// partition over a comparison-sorted vertex table, a comparison sort of
// every (vertex, partition) pair, per-replica out-edge flags for the gather
// lists, and the master draw written out inline. The RoleRemote bit is the fleet
// builder's rule: set on a master copy whose vertex has mirrors.
func referenceCut(g graph.View, a Assignment, seed uint64) refCut {
	n := g.NumVertices()
	type rawEdge struct{ u, v graph.VertexID }
	raw := make([][]rawEdge, a.Parts)
	i := 0
	g.ForEachEdge(func(u, v graph.VertexID) {
		p := a.EdgeTo[i]
		raw[p] = append(raw[p], rawEdge{u, v})
		i++
	})

	ref := refCut{
		shards: make([]*graph.ShardFile, a.Parts),
		hosts:  make([][]int32, n),
		gather: make([][]int32, n),
		master: make([]int32, n),
	}
	index := make([]map[graph.VertexID]int32, a.Parts)
	outFlags := make([][]bool, a.Parts)
	for p := range a.Parts {
		seen := make(map[graph.VertexID]struct{}, len(raw[p]))
		for _, e := range raw[p] {
			seen[e.u] = struct{}{}
			seen[e.v] = struct{}{}
		}
		locals := make([]graph.VertexID, 0, len(seen))
		for v := range seen {
			locals = append(locals, v)
		}
		sort.Slice(locals, func(i, j int) bool { return locals[i] < locals[j] })
		index[p] = make(map[graph.VertexID]int32, len(locals))
		sf := &graph.ShardFile{
			Shard: p, Shards: a.Parts, NumVertices: n,
			Locals: locals, Deg: make([]int32, len(locals)),
			EdgeSrc: make([]int32, len(raw[p])), EdgeDst: make([]int32, len(raw[p])),
			Roles: make([]uint8, len(locals)),
		}
		for i, v := range locals {
			index[p][v] = int32(i)
			sf.Deg[i] = int32(g.OutDegree(v))
		}
		outFlags[p] = make([]bool, len(locals))
		for i, e := range raw[p] {
			sf.EdgeSrc[i], sf.EdgeDst[i] = index[p][e.u], index[p][e.v]
			outFlags[p][sf.EdgeSrc[i]] = true
		}
		ref.shards[p] = sf
	}

	type vp struct {
		v graph.VertexID
		p int32
	}
	var pairs []vp
	for p, sf := range ref.shards {
		for _, v := range sf.Locals {
			pairs = append(pairs, vp{v, int32(p)})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].v != pairs[j].v {
			return pairs[i].v < pairs[j].v
		}
		return pairs[i].p < pairs[j].p
	})
	for v := range ref.master {
		ref.master[v] = -1
	}
	masters := 0
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j].v == pairs[i].v {
			j++
		}
		v, replicas := pairs[i].v, pairs[i:j]
		mp := replicas[randx.Uint64n(uint64(len(replicas)), seed, uint64(v), 0xA5)].p
		mi := index[mp][v]
		ref.shards[mp].Roles[mi] = graph.RoleMaster
		if len(replicas) > 1 {
			ref.shards[mp].Roles[mi] |= graph.RoleRemote
		}
		ref.master[v] = mp
		for _, r := range replicas {
			ref.hosts[v] = append(ref.hosts[v], r.p)
			if outFlags[r.p][index[r.p][v]] {
				ref.gather[v] = append(ref.gather[v], r.p)
			}
		}
		masters++
		i = j
	}
	if masters > 0 {
		ref.rf = float64(len(pairs)) / float64(masters)
	}
	return ref
}

// checkCut holds NewCut and Place to referenceCut on one (graph,
// assignment, seed): NewCut's shards, and both cuts' placement — host rows
// and local indices, masters, source rows and replication factor. Place
// builds no shard, so the shards NewCut builds over its placement are the
// reference's exactly when its rows are.
func checkCut(t *testing.T, name string, g graph.View, a Assignment, seed uint64) {
	t.Helper()
	c, err := NewCut(g, a, seed)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref := referenceCut(g, a, seed)
	if !reflect.DeepEqual(c.Shards, ref.shards) {
		for p := range ref.shards {
			if !reflect.DeepEqual(c.Shards[p], ref.shards[p]) {
				t.Fatalf("%s: shard %d:\n got %+v\nwant %+v", name, p, c.Shards[p], ref.shards[p])
			}
		}
	}
	for p, sf := range c.Shards {
		if err := sf.Validate(); err != nil {
			t.Fatalf("%s: shard %d: %v", name, p, err)
		}
	}
	placed, err := Place(g, a, seed)
	if err != nil {
		t.Fatalf("%s: place: %v", name, err)
	}
	if placed.Shards != nil {
		t.Fatalf("%s: a placement built %d shards", name, len(placed.Shards))
	}
	for _, cut := range []struct {
		kind string
		c    *Cut
	}{{"cut", c}, {"placement", placed}} {
		c := cut.c
		if c.NumVertices() != g.NumVertices() {
			t.Fatalf("%s %s: NumVertices %d, want %d", name, cut.kind, c.NumVertices(), g.NumVertices())
		}
		for v := range g.NumVertices() {
			u := graph.VertexID(v)
			hosts, locals := c.Replicas(u)
			if !slices.Equal(hosts, ref.hosts[v]) || c.Master(u) != ref.master[v] {
				t.Fatalf("%s %s: vertex %d: hosts %v master %d, want %v master %d", name, cut.kind, v, hosts, c.Master(u), ref.hosts[v], ref.master[v])
			}
			for k, s := range hosts {
				if got := ref.shards[s].Locals[locals[k]]; got != u {
					t.Fatalf("%s %s: vertex %d: local index %d on shard %d holds %d", name, cut.kind, v, locals[k], s, got)
				}
			}
			// The shards a query touches through v and the sim's master
			// gathers from: the reference's gather list.
			if src := c.Sources(u); !slices.Equal(src, ref.gather[v]) {
				t.Fatalf("%s %s: vertex %d sources %v, want %v", name, cut.kind, v, src, ref.gather[v])
			}
		}
		if got, want := math.Float64bits(c.ReplicationFactor()), math.Float64bits(ref.rf); got != want {
			t.Fatalf("%s %s: replication factor %v, want %v", name, cut.kind, c.ReplicationFactor(), ref.rf)
		}
	}
}

// TestNewCutMatchesReference: on random graphs — isolated vertices included
// — under every strategy and under arbitrary hand-built assignments, NewCut
// builds the reference's shards, and NewCut and Place its host rows, source
// rows, masters and replication factor, bit for bit.
func TestNewCutMatchesReference(t *testing.T) {
	f := func(seed int64, partsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(150) + 2
		g, err := gen.ErdosRenyi(n, rng.Intn(3*n), uint64(seed))
		if err != nil {
			t.Fatal(err)
		}
		parts := int(partsRaw%20) + 1
		for _, s := range []Strategy{HashEdge{Seed: uint64(seed)}, HashSource{Seed: uint64(seed)}, Greedy{}} {
			a, err := s.Partition(g, parts)
			if err != nil {
				t.Fatal(err)
			}
			checkCut(t, s.Name(), g, a, uint64(seed))
		}
		hand := Assignment{Parts: parts, EdgeTo: make([]int32, g.NumEdges())}
		for i := range hand.EdgeTo {
			hand.EdgeTo[i] = int32(rng.Intn(parts))
		}
		checkCut(t, "hand-built", g, hand, uint64(seed))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}

	// The edge cases by name.
	edgeless := graph.MustFromEdges(6, nil)
	for _, parts := range []int{1, 4} {
		checkCut(t, "edgeless", edgeless, Assignment{Parts: parts, EdgeTo: []int32{}}, 1)
	}
	small := graph.MustFromEdges(9, []graph.Edge{{Src: 0, Dst: 3}, {Src: 3, Dst: 0}, {Src: 5, Dst: 8}})
	for _, parts := range []int{1, 2, 7} { // 7 > edges: most shards are empty
		a, err := HashEdge{Seed: 4}.Partition(small, parts)
		if err != nil {
			t.Fatal(err)
		}
		checkCut(t, "small", small, a, 4)
	}
	checkCut(t, "hand-built", small, Assignment{Parts: 3, EdgeTo: []int32{2, 0, 2}}, 5)
	delta, err := graph.NewDelta(randomGraph(t, 80, 400, 3)).Apply(
		[]graph.Edge{{Src: 1, Dst: 79}, {Src: 79, Dst: 2}}, []graph.Edge{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Greedy{}.Partition(delta, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkCut(t, "delta", delta, a, 6)
}

// TestNewCutRejectsBadAssignments: a cut is only built from an assignment
// that places every edge of the graph on a partition that exists.
func TestNewCutRejectsBadAssignments(t *testing.T) {
	g := randomGraph(t, 20, 60, 2)
	good, err := HashEdge{}.Partition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	bad := slices.Clone(good.EdgeTo)
	bad[7] = 3
	for name, tc := range map[string]struct {
		g graph.View
		a Assignment
	}{
		"nil graph":    {nil, good},
		"no parts":     {g, Assignment{Parts: 0, EdgeTo: good.EdgeTo}},
		"short":        {g, Assignment{Parts: 3, EdgeTo: good.EdgeTo[1:]}},
		"out of range": {g, Assignment{Parts: 3, EdgeTo: bad}},
	} {
		if _, err := NewCut(tc.g, tc.a, 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := Place(tc.g, tc.a, 1); err == nil {
			t.Errorf("%s: placed", name)
		}
	}
}

// BenchmarkNewCut times the vertex cut alone from a ready hash-edge
// assignment, on a power-law graph of the bench harness's shape at a tenth
// of its size, 2 shards as in the fleet-scoped workload: the placement a
// coordinator of resident workers builds (replica, source and master rows),
// and the whole cut with its shards. Each reports ns/edge.
func BenchmarkNewCut(b *testing.B) {
	stream, err := gen.NewPowerLawStream(20_000, 200_000, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := stream.Build(1)
	if err != nil {
		b.Fatal(err)
	}
	a, err := HashEdge{Seed: 42}.Partition(g, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		build func(graph.View, Assignment, uint64) (*Cut, error)
	}{{"placement", Place}, {"shards", NewCut}} {
		b.Run(bc.name, func(b *testing.B) {
			for b.Loop() {
				if _, err := bc.build(g, a, 42); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.NumEdges()), "ns/edge")
		})
	}
}

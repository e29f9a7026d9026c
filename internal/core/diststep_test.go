package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"

	"snaple/internal/graph"
	"snaple/internal/partition"
)

// handCut splits g's edges over two shards by hand — edge i of the view's
// (src, dst) order goes to shard i%2, so nearly every vertex is replicated on
// both — and builds the shards from that assignment with partition.NewCut,
// the one builder every scheduler's shards come from, indexed as a driver
// indexes them before it opens jobs.
func handCut(t *testing.T, g graph.View) []*graph.ShardFile {
	t.Helper()
	a := partition.Assignment{Parts: 2, EdgeTo: make([]int32, g.NumEdges())}
	for i := range a.EdgeTo {
		a.EdgeTo[i] = int32(i % 2)
	}
	c, err := partition.NewCut(g, a, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, sf := range c.Shards {
		if err := sf.IndexRuns(); err != nil {
			t.Fatal(err)
		}
	}
	return c.Shards
}

func clonePartial(dp *DistPartial) DistPartial {
	return DistPartial{V: dp.V, Nbrs: slices.Clone(dp.Nbrs), Sims: slices.Clone(dp.Sims), Cands: slices.Clone(dp.Cands)}
}

// runHandCut plays the coordinator for DistPartitions over shards, with no
// wire in between: per superstep every shard streams its gather, every master
// applies the partials of all shards, and every mirror is refreshed with its
// master's state. A scoped run opens each shard's job over exactly the
// closure's vertices local to it, the way a worker opens one from the
// attach's entries. Along the way it holds GatherVertex to GatherStream: the
// re-gather of any slot is exactly what the stream emitted for it, or
// nothing where the stream emitted nothing.
func runHandCut(shards []*graph.ShardFile, cfg Config, f *Frontier) (Predictions, error) {
	parts := make([]*DistPartition, len(shards))
	for p, sf := range shards {
		var part *DistPartition
		var err error
		if f == nil {
			part, err = NewDistPartition(cfg, sf)
		} else {
			var verts []graph.VertexID
			var scope []uint8
			for _, v := range sf.Locals {
				if m := f.ScopeMask(v); m != 0 {
					verts, scope = append(verts, v), append(scope, m)
				}
			}
			part, err = NewScopedDistPartition(cfg, sf, verts, scope)
		}
		if err != nil {
			return nil, err
		}
		parts[p] = part
	}
	isMaster := func(p int, s int32) bool {
		li, _ := slices.BinarySearch(shards[p].Locals, parts[p].Vertex(s))
		return shards[p].Roles[li]&graph.RoleMaster != 0
	}
	for _, step := range DistSteps() {
		byVertex := map[graph.VertexID][]DistPartial{}
		for p, part := range parts {
			emitted := map[int32]DistPartial{}
			last := int32(-1)
			err := part.GatherStream(step, nil, func(s int32, dp *DistPartial) error {
				if s <= last || dp.V != part.Vertex(s) {
					return fmt.Errorf("%v shard %d: emit for slot %d (vertex %d) after slot %d", step, p, s, dp.V, last)
				}
				last = s
				emitted[s] = clonePartial(dp)
				byVertex[dp.V] = append(byVertex[dp.V], clonePartial(dp))
				return nil
			})
			if err != nil {
				return nil, err
			}
			for s := range int32(part.NumSlots()) {
				var dp DistPartial
				ok := part.GatherVertex(step, s, &dp)
				want, streamed := emitted[s]
				if ok != streamed || (ok && !reflect.DeepEqual(clonePartial(&dp), want)) {
					return nil, fmt.Errorf("%v shard %d slot %d: GatherVertex = %+v (%v), the stream emitted %+v (%v)",
						step, p, s, dp, ok, want, streamed)
				}
			}
		}
		for p, part := range parts {
			for s := range int32(part.NumSlots()) {
				if isMaster(p, s) {
					if err := part.Apply(step, s, byVertex[part.Vertex(s)]); err != nil {
						return nil, err
					}
				}
			}
		}
		for p, part := range parts {
			for s := range int32(part.NumSlots()) {
				if isMaster(p, s) {
					continue
				}
				v := part.Vertex(s)
				ms, ok := parts[1-p].Slot(v)
				if !ok || !isMaster(1-p, ms) {
					return nil, fmt.Errorf("vertex %d has no master", v)
				}
				*part.Data(s) = *parts[1-p].Data(ms)
			}
		}
	}
	pred := make(Predictions, shards[0].NumVertices)
	for p, part := range parts {
		for s := range int32(part.NumSlots()) {
			if d := part.Data(s); isMaster(p, s) && len(d.Pred) > 0 {
				pred[part.Vertex(s)] = d.Pred
			}
		}
	}
	return pred, nil
}

// TestDistPartitionMatchesReference drives DistPartition directly — the
// streaming gather, the applies and the apply-time re-gather — through its
// three DistSteps, full and scoped, and demands the serial reference's bits.
func TestDistPartitionMatchesReference(t *testing.T) {
	g := communityGraph(t, 240, 17)
	shards := handCut(t, g)
	for _, cfg := range []Config{
		{Score: mustScore(t, "linearSum"), K: 5, KLocal: 6, Seed: 1},
		{Score: mustScore(t, "counter"), K: 5, KLocal: 4, ThrGamma: 6, Policy: SelectRnd, Seed: 2},
	} {
		for _, sources := range [][]graph.VertexID{nil, {3, 77, 200}} {
			cfg := cfg
			cfg.Sources = sources
			want, err := ReferenceSnaple(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewFrontier(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			label := cfg.Score.Name
			if sources != nil {
				label += "-scoped"
			}
			got, err := runHandCut(shards, cfg, f)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			predictionsEqual(t, got, want, label)
		}
	}
}

// TestDistPartitionsShareOneShard pins what makes the static half shareable:
// opening and running a job never writes the shard, so any number of jobs —
// concurrent ones included; -race watches this test — run over one.
func TestDistPartitionsShareOneShard(t *testing.T) {
	g := communityGraph(t, 120, 5)
	shards := handCut(t, g)
	before := make([]graph.ShardFile, len(shards))
	for p, sf := range shards {
		before[p] = graph.ShardFile{
			Fingerprint: sf.Fingerprint, Shard: sf.Shard, Shards: sf.Shards, NumVertices: sf.NumVertices,
			Locals: slices.Clone(sf.Locals), Deg: slices.Clone(sf.Deg),
			EdgeSrc: slices.Clone(sf.EdgeSrc), EdgeDst: slices.Clone(sf.EdgeDst),
			Roles:    slices.Clone(sf.Roles),
			RunStart: slices.Clone(sf.RunStart),
		}
	}
	cfg := Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 6, Seed: 1}
	want, err := ReferenceSnaple(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]Predictions, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[i], err = runHandCut(shards, cfg, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, pred := range got {
		predictionsEqual(t, pred, want, "shared shard")
	}
	for p, sf := range shards {
		if !reflect.DeepEqual(*sf, before[p]) {
			t.Fatalf("shard %d was written while jobs ran over it", p)
		}
	}
}

// TestScopedDistPartitionRejectsBadScope pins the scoped open's input
// contract: the vertices are the attach's entries, which a worker takes from
// the network, so repeated or descending ones fail with ErrScopeOrder and a
// vertex the shard does not hold fails too — neither is sorted or skipped
// silently.
func TestScopedDistPartitionRejectsBadScope(t *testing.T) {
	sf := handCut(t, communityGraph(t, 120, 5))[0]
	cfg := Config{Score: mustScore(t, "linearSum"), K: 5, Seed: 1}
	a, b := sf.Locals[3], sf.Locals[9]
	for _, c := range []struct {
		name  string
		verts []graph.VertexID
		order bool
	}{
		{"descending", []graph.VertexID{b, a}, true},
		{"repeated", []graph.VertexID{a, a}, true},
		{"not-local", []graph.VertexID{a, graph.VertexID(sf.NumVertices + 7)}, false},
	} {
		_, err := NewScopedDistPartition(cfg, sf, c.verts, make([]uint8, len(c.verts)))
		if err == nil || errors.Is(err, ErrScopeOrder) != c.order {
			t.Errorf("%s: err = %v, ErrScopeOrder expected: %v", c.name, err, c.order)
		}
	}
	if _, err := NewScopedDistPartition(cfg, sf, []graph.VertexID{a, b}, []uint8{ScopeTrunc}); err == nil {
		t.Error("two vertices with one scope mask accepted")
	}
	p, err := NewScopedDistPartition(cfg, sf, []graph.VertexID{a, b}, []uint8{ScopeTrunc, ScopePred})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != 2 || p.Vertex(1) != b {
		t.Errorf("slots: %d, slot 1 = vertex %d", p.NumSlots(), p.Vertex(1))
	}
	if s, ok := p.Slot(b); !ok || s != 1 {
		t.Errorf("Slot(%d) = %d, %v", b, s, ok)
	}
	if _, ok := p.Slot(sf.Locals[5]); ok {
		t.Error("Slot found a local outside the job")
	}
}

// TestSeek holds the galloping search to slices.BinarySearch from every
// starting point, including past the answer's run and at the end.
func TestSeek(t *testing.T) {
	xs := []int32{0, 0, 1, 3, 3, 3, 4, 9, 9, 12}
	for from := range len(xs) + 1 {
		for x := int32(-1); x <= 13; x++ {
			want, _ := slices.BinarySearch(xs[from:], x)
			if got := seek(xs, from, x); got != from+want {
				t.Errorf("seek(from %d, %d) = %d, want %d", from, x, got, from+want)
			}
		}
	}
}

// TestSearchFrom holds the cursor search to slices.BinarySearch over every
// sequence of two keys — ascending, repeated and descending — from every
// cursor the first search can leave.
func TestSearchFrom(t *testing.T) {
	xs := []int32{1, 3, 3, 4, 9, 12}
	for x := int32(0); x <= 13; x++ {
		for y := int32(0); y <= 13; y++ {
			at := 0
			for _, k := range []int32{x, y} {
				want, wok := slices.BinarySearch(xs, k)
				if got, ok := SearchFrom(xs, &at, k); got != want || ok != wok {
					t.Fatalf("keys %d then %d: SearchFrom(%d) = %d, %v, want %d, %v", x, y, k, got, ok, want, wok)
				}
			}
		}
	}
}

// TestApplyTruncateMergesRuns holds step 1's run merge to slices.Sorted: a
// sum of 1–4 ascending partials, some of them empty, one shard's lone run,
// repeated ids, and unordered input (runs of one). One Scratch serves every
// case, as one does every apply of a partition, and the sum is only read.
func TestApplyTruncateMergesRuns(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	var s Scratch
	for c := range 2000 {
		n := rng.IntN(40)
		if c%100 == 0 {
			n = 2000 + rng.IntN(2000)
		}
		span := 1 + rng.IntN(3*n+1)
		parts := make([][]graph.VertexID, 1+rng.IntN(4))
		for range n {
			p := rng.IntN(len(parts))
			parts[p] = append(parts[p], graph.VertexID(rng.IntN(span)))
		}
		var sum []graph.VertexID
		for _, part := range parts {
			if c%10 != 9 {
				slices.Sort(part)
			}
			sum = append(sum, part...)
		}
		in := slices.Clone(sum)
		got := s.applyTruncate(sum)
		want := slices.Sorted(slices.Values(sum))
		if n == 0 {
			want = nil
		}
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("case %d, %d parts: applyTruncate(%v) = %v, want %v", c, len(parts), in, got, want)
		}
		if !slices.Equal(sum, in) {
			t.Fatalf("case %d: applyTruncate wrote its input", c)
		}
		if len(got) > 0 && len(s.merged) > 0 && &got[0] == &s.merged[0] {
			t.Fatalf("case %d: the result aliases the scratch buffer", c)
		}
	}
}

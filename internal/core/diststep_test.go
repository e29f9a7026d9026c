package core

import (
	"fmt"
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
// the one builder every scheduler's shards come from.
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
	return c.Shards
}

func clonePartial(dp *DistPartial) DistPartial {
	return DistPartial{V: dp.V, Nbrs: slices.Clone(dp.Nbrs), Sims: slices.Clone(dp.Sims), Cands: slices.Clone(dp.Cands)}
}

// runHandCut plays the coordinator for DistPartitions over shards, with no
// wire in between: per superstep every shard streams its gather, every master
// applies the partials of all shards, and every mirror is refreshed with its
// master's state. Along the way it holds GatherVertex to GatherStream: the
// re-gather of any local vertex is exactly what the stream emitted for it,
// or nothing where the stream emitted nothing.
func runHandCut(shards []*graph.ShardFile, cfg Config, f *Frontier) (Predictions, error) {
	parts := make([]*DistPartition, len(shards))
	for p, sf := range shards {
		part, err := NewDistPartition(cfg, sf)
		if err != nil {
			return nil, err
		}
		if f != nil {
			scope := make([]uint8, len(sf.Locals))
			for li, v := range sf.Locals {
				scope[li] = f.ScopeMask(v)
			}
			if err := part.SetScope(scope); err != nil {
				return nil, err
			}
		}
		parts[p] = part
	}
	for _, step := range DistSteps(parts[0].Config().Paths) {
		byVertex := map[graph.VertexID][]DistPartial{}
		for p, part := range parts {
			emitted := map[int32]DistPartial{}
			last := int32(-1)
			err := part.GatherStream(step, func(li int32, dp *DistPartial) error {
				if li <= last || dp.V != shards[p].Locals[li] {
					return fmt.Errorf("%v shard %d: emit for local %d (vertex %d) after local %d", step, p, li, dp.V, last)
				}
				last = li
				emitted[li] = clonePartial(dp)
				byVertex[dp.V] = append(byVertex[dp.V], clonePartial(dp))
				return nil
			})
			if err != nil {
				return nil, err
			}
			for li := range shards[p].Locals {
				var dp DistPartial
				ok := part.GatherVertex(step, int32(li), &dp)
				want, streamed := emitted[int32(li)]
				if ok != streamed || (ok && !reflect.DeepEqual(clonePartial(&dp), want)) {
					return nil, fmt.Errorf("%v shard %d local %d: GatherVertex = %+v (%v), the stream emitted %+v (%v)",
						step, p, li, dp, ok, want, streamed)
				}
			}
		}
		for p, sf := range shards {
			for li, v := range sf.Locals {
				if sf.IsMaster[li] {
					if err := parts[p].Apply(step, int32(li), byVertex[v]); err != nil {
						return nil, err
					}
				}
			}
		}
		for p, sf := range shards {
			for li, v := range sf.Locals {
				if sf.IsMaster[li] {
					continue
				}
				mli, ok := parts[1-p].LocalIndex(v)
				if !ok || !shards[1-p].IsMaster[mli] {
					return nil, fmt.Errorf("vertex %d has no master", v)
				}
				*parts[p].Data(int32(li)) = *parts[1-p].Data(mli)
			}
		}
	}
	pred := make(Predictions, shards[0].NumVertices)
	for p, sf := range shards {
		for li, v := range sf.Locals {
			if d := parts[p].Data(int32(li)); sf.IsMaster[li] && len(d.Pred) > 0 {
				pred[v] = d.Pred
			}
		}
	}
	return pred, nil
}

// TestDistPartitionMatchesReference drives DistPartition directly — the
// streaming gather, the applies and the apply-time re-gather — through all
// five DistSteps (1, 2, 3 on the 2-hop pipeline; 1, 2, 3a, 3b on the 3-hop
// one), full and scoped, and demands the serial references' bits.
func TestDistPartitionMatchesReference(t *testing.T) {
	g := communityGraph(t, 240, 17)
	shards := handCut(t, g)
	for _, cfg := range []Config{
		{Score: mustScore(t, "linearSum"), K: 5, KLocal: 6, Seed: 1},
		{Score: mustScore(t, "counter"), K: 5, KLocal: 4, ThrGamma: 6, Policy: SelectRnd, Seed: 2},
		{Score: mustScore(t, "linearSum"), K: 5, KLocal: 5, Paths: 3, Seed: 3},
		{Score: mustScore(t, "geomMean"), K: 5, KLocal: 4, ThrGamma: 10, Paths: 3, Seed: 4},
	} {
		for _, sources := range [][]graph.VertexID{nil, {3, 77, 200}} {
			cfg := cfg
			cfg.Sources = sources
			ref := ReferenceSnaple
			if cfg.Paths == 3 {
				ref = ReferenceSnaple3Hop
			}
			want, err := ref(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewFrontier(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			label := cfg.Score.Name
			if cfg.Paths == 3 {
				label += "-3hop"
			}
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
			IsMaster: slices.Clone(sf.IsMaster), HasRemote: slices.Clone(sf.HasRemote),
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

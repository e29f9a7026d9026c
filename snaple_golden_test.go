package snaple

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// predictionsDigest is an FNV-1a digest of a prediction table: every
// vertex's row length, then each prediction's vertex and score bits.
func predictionsDigest(p Predictions) uint64 {
	h := fnv.New64a()
	var b [12]byte
	for u, row := range p {
		binary.LittleEndian.PutUint32(b[:4], uint32(u))
		binary.LittleEndian.PutUint32(b[4:8], uint32(len(row)))
		h.Write(b[:8])
		for _, pr := range row {
			binary.LittleEndian.PutUint32(b[:4], uint32(pr.Vertex))
			binary.LittleEndian.PutUint64(b[4:], math.Float64bits(pr.Score))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// facadeCosts is what TestFacadeCostsGolden pins per deployment. cross and
// mem are pinned for the simulated deployments only: on dist they are
// measured on sockets and heaps and move by a few bytes from run to run.
type facadeCosts struct {
	digest           uint64
	msgs             int64
	rfBits           uint64
	frontier, scored int
	cross, mem       int64
}

func costsOf(p Predictions, st EngineStats, simulated bool) facadeCosts {
	c := facadeCosts{
		digest: predictionsDigest(p), msgs: st.CrossMsgs,
		rfBits:   math.Float64bits(st.ReplicationFactor),
		frontier: st.FrontierVertices, scored: st.ScoredVertices,
	}
	if simulated {
		c.cross, c.mem = st.CrossBytes, st.MemPeakBytes
	}
	return c
}

// goldenFacadeCosts holds, per deployment, the costs the facade reported
// before Options absorbed the deployment fields: every value was recorded
// through the entry points of that API (PredictDistributed, PredictBaseline
// and OpenCluster, each with one seed for the run and the cut), and now comes
// back through PredictStats, PredictBaseline and OpenCluster.
var goldenFacadeCosts = map[string]facadeCosts{
	"sim/hash-edge/full":   {0xa981750d67043409, 5398, 0x40192e147ae147ae, 0, 400, 389836, 228204},
	"sim/hash-edge/scoped": {0xbef92cc0dd452f, 3571, 0x40192e147ae147ae, 23, 3, 96588, 35156},
	"sim/greedy/full":      {0xa981750d67043409, 2284, 0x4009fae147ae147b, 0, 400, 178688, 135992},
	"sim/greedy/scoped":    {0xbef92cc0dd452f, 1508, 0x4009fae147ae147b, 23, 3, 40144, 18104},
	"baseline":             {0x16fff8d253e92e3a, 6645, 0x402030a3d70a3d71, 0, 0, 2377772, 1508564},
	"dist/one-shot/full":   {0xa981750d67043409, 30, 0x3ffe70a3d70a3d71, 0, 400, 0, 0},
	"dist/one-shot/scoped": {0xbef92cc0dd452f, 30, 0x4000000000000000, 23, 3, 0, 0},
	"dist/cluster/full":    {0xa981750d67043409, 30, 0x3ffe70a3d70a3d71, 0, 400, 0, 0},
	"dist/cluster/scoped":  {0xbef92cc0dd452f, 30, 0x4000000000000000, 23, 3, 0, 0},
}

// TestFacadeCostsGolden holds every facade entry point that takes a
// deployment to the predictions and deterministic costs it reported before
// the deployment became part of Options: the simulated cluster under two
// cuts, full and scoped; BASELINE; and a two-worker in-process fleet, one-shot
// and standing.
func TestFacadeCostsGolden(t *testing.T) {
	g := facadeGraph(t)
	base := Options{Score: "linearSum", KLocal: 6, ThrGamma: 12, Policy: "rnd", Seed: 5, Workers: 1}
	sources := []VertexID{3, 77, 201}
	check := func(key string, got facadeCosts) {
		t.Helper()
		if want, ok := goldenFacadeCosts[key]; !ok || got != want {
			t.Errorf("%s: got %#v, want %#v", key, got, want)
		}
	}

	for _, strategy := range []string{"hash-edge", "greedy"} {
		for _, scoped := range []bool{false, true} {
			opts := base
			opts.Engine, opts.Nodes, opts.NodeType, opts.Strategy = "sim", 2, "type-I", strategy
			if scoped {
				opts.Sources = sources
			}
			p, st, err := PredictStats(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			key := "sim/" + strategy + "/full"
			if scoped {
				key = "sim/" + strategy + "/scoped"
			}
			check(key, costsOf(p, st, true))
		}
	}

	bl := base
	bl.K, bl.Nodes, bl.NodeType = 5, 2, "type-II"
	p, st, err := PredictBaseline(g, bl)
	if err != nil {
		t.Fatal(err)
	}
	check("baseline", costsOf(p, st, true))

	dist := base
	dist.Engine, dist.Workers = "dist", 2
	for _, scoped := range []bool{false, true} {
		opts := dist
		key := "dist/one-shot/full"
		if scoped {
			opts.Sources, key = sources, "dist/one-shot/scoped"
		}
		p, st, err := PredictStats(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		check(key, costsOf(p, st, false))
	}

	c, err := OpenCluster(g, dist)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if p, st, err = c.Predict(); err != nil {
		t.Fatal(err)
	}
	check("dist/cluster/full", costsOf(p, st, false))
	if p, st, err = c.PredictFor(sources); err != nil {
		t.Fatal(err)
	}
	check("dist/cluster/scoped", costsOf(p, st, false))
}

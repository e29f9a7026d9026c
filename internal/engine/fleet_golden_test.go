package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"snaple/internal/core"
	"snaple/internal/gen"
	"snaple/internal/graph"
	"snaple/internal/leakcheck"
	"snaple/internal/randx"
)

// fleetGolden is one scoped fleet query's recorded outcome: an FNV-1a digest
// of the sources' prediction rows, the measured cross-worker traffic (exact
// on an uncompressed fleet: the frames are a pure function of the query) and
// the closure's size.
type fleetGolden struct {
	rows                  uint64
	crossBytes, crossMsgs int64
	frontier, scored      int
}

// goldenFleetScoped holds every (fleet shape, query) of TestFleetScopedGolden.
// The values were recorded while a worker session still held |Locals|-long
// columns and the coordinator |V|-long routing tables: a closure-indexed
// session and sparse routing must reproduce every row and every wire byte.
// Protocol v5 re-recorded the traffic and nothing else: a state record lost
// its two u32 counts for the 3-hop path list and the predictions (8 B per
// record), and since refresh chunks flush at a byte threshold, 20 rows also
// send fewer refresh frames (28 B of framing each).
var goldenFleetScoped = map[string]fleetGolden{
	"shards=2/reps=1/s1/isolated":            {0x558323f0cadf8968, 0, 0, 1, 1},
	"shards=2/reps=1/s1/hub0":                {0x9f2842b1abd927f0, 1369964, 42, 6013, 1},
	"shards=2/reps=1/s1/hub3":                {0x21ee7b673c0bf9f4, 504972, 30, 2107, 1},
	"shards=2/reps=1/s1/mid":                 {0x5c314886e84a96ea, 162884, 30, 661, 1},
	"shards=2/reps=1/s1/tail":                {0x796635e48631e307, 6724, 30, 21, 1},
	"shards=2/reps=1/s1/one-shard":           {0x6dcc516dcded15f7, 12012, 30, 42, 1},
	"shards=2/reps=1/s8/uniform-a":           {0x31cba53120c93c70, 362952, 30, 1552, 8},
	"shards=2/reps=1/s8/uniform-b":           {0xc44817e8057b76a9, 97932, 30, 381, 8},
	"shards=2/reps=1/s8/uniform-c":           {0x1776baccf3faee76, 162496, 30, 656, 8},
	"shards=2/reps=1/s8/one-shard":           {0x404a95382dbe4791, 41664, 30, 151, 8},
	"shards=2/reps=1/s8/hub-and-tail":        {0x43f88d1c35912feb, 1412232, 44, 6185, 8},
	"shards=2/reps=1/s8/duplicates-isolated": {0xd17ac7de45bcfb96, 457268, 30, 1886, 4},
	"shards=2/reps=1/s8/ppr":                 {0xcef4423970dce437, 134916, 30, 542, 8},
	"shards=2/reps=1/s8/rnd":                 {0x675ac9ddda0b6f58, 150392, 30, 617, 8},
	"shards=2/reps=1/s64/uniform-a":          {0xa7eaf86f85701f54, 1017248, 38, 4308, 64},
	"shards=2/reps=1/s64/uniform-b":          {0xd6e7c631e34063f6, 866844, 38, 3639, 64},
	"shards=2/reps=1/s64/low-ids":            {0xf957333f830ede5b, 3530152, 74, 14370, 64},
	"shards=2/reps=1/s64/with-isolated":      {0xfeabe02a10e64ed1, 905408, 38, 3795, 64},
	"shards=2/reps=2/s1/isolated":            {0x558323f0cadf8968, 0, 0, 1, 1},
	"shards=2/reps=2/s1/hub0":                {0x9f2842b1abd927f0, 2739652, 80, 6013, 1},
	"shards=2/reps=2/s1/hub3":                {0x21ee7b673c0bf9f4, 1009668, 56, 2107, 1},
	"shards=2/reps=2/s1/mid":                 {0x5c314886e84a96ea, 325492, 56, 661, 1},
	"shards=2/reps=2/s1/tail":                {0x796635e48631e307, 13172, 56, 21, 1},
	"shards=2/reps=2/s1/one-shard":           {0x6dcc516dcded15f7, 23748, 56, 42, 1},
	"shards=2/reps=2/s8/uniform-a":           {0x31cba53120c93c70, 725152, 56, 1552, 8},
	"shards=2/reps=2/s8/uniform-b":           {0xc44817e8057b76a9, 195180, 56, 381, 8},
	"shards=2/reps=2/s8/uniform-c":           {0x1776baccf3faee76, 324240, 56, 656, 8},
	"shards=2/reps=2/s8/one-shard":           {0x404a95382dbe4791, 82624, 56, 151, 8},
	"shards=2/reps=2/s8/hub-and-tail":        {0x43f88d1c35912feb, 2823816, 84, 6185, 8},
	"shards=2/reps=2/s8/duplicates-isolated": {0xd17ac7de45bcfb96, 914124, 56, 1886, 4},
	"shards=2/reps=2/s8/ppr":                 {0xcef4423970dce437, 269148, 56, 542, 8},
	"shards=2/reps=2/s8/rnd":                 {0x675ac9ddda0b6f58, 300056, 56, 617, 8},
	"shards=2/reps=2/s64/uniform-a":          {0xa7eaf86f85701f54, 2030144, 72, 4308, 64},
	"shards=2/reps=2/s64/uniform-b":          {0xd6e7c631e34063f6, 1729428, 72, 3639, 64},
	"shards=2/reps=2/s64/low-ids":            {0xf957333f830ede5b, 7055744, 144, 14370, 64},
	"shards=2/reps=2/s64/with-isolated":      {0xfeabe02a10e64ed1, 1806544, 72, 3795, 64},
	"shards=3/reps=1/s1/isolated":            {0x558323f0cadf8968, 0, 0, 1, 1},
	"shards=3/reps=1/s1/hub0":                {0x9f2842b1abd927f0, 2043120, 69, 6013, 1},
	"shards=3/reps=1/s1/hub3":                {0x21ee7b673c0bf9f4, 753808, 45, 2107, 1},
	"shards=3/reps=1/s1/mid":                 {0x5c314886e84a96ea, 243764, 45, 661, 1},
	"shards=3/reps=1/s1/tail":                {0x796635e48631e307, 10060, 45, 21, 1},
	"shards=3/reps=1/s1/one-shard":           {0x79c8494cd6dc234, 4200, 45, 7, 1},
	"shards=3/reps=1/s8/uniform-a":           {0x31cba53120c93c70, 538080, 45, 1552, 8},
	"shards=3/reps=1/s8/uniform-b":           {0xc44817e8057b76a9, 145216, 45, 381, 8},
	"shards=3/reps=1/s8/uniform-c":           {0x1776baccf3faee76, 242300, 45, 656, 8},
	"shards=3/reps=1/s8/one-shard":           {0x50462666bdf8afb2, 87840, 45, 236, 8},
	"shards=3/reps=1/s8/hub-and-tail":        {0x43f88d1c35912feb, 2105572, 69, 6185, 8},
	"shards=3/reps=1/s8/duplicates-isolated": {0xd17ac7de45bcfb96, 680500, 45, 1886, 4},
	"shards=3/reps=1/s8/ppr":                 {0xcef4423970dce437, 200988, 45, 542, 8},
	"shards=3/reps=1/s8/rnd":                 {0x675ac9ddda0b6f58, 223712, 45, 617, 8},
	"shards=3/reps=1/s64/uniform-a":          {0xa7eaf86f85701f54, 1512096, 51, 4308, 64},
	"shards=3/reps=1/s64/uniform-b":          {0xd6e7c631e34063f6, 1287264, 51, 3639, 64},
	"shards=3/reps=1/s64/low-ids":            {0xf957333f830ede5b, 5215588, 108, 14370, 64},
	"shards=3/reps=1/s64/with-isolated":      {0xfeabe02a10e64ed1, 1341196, 51, 3795, 64},
	"shards=3/reps=2/s1/isolated":            {0x558323f0cadf8968, 0, 0, 1, 1},
	"shards=3/reps=2/s1/hub0":                {0x9f2842b1abd927f0, 4085860, 132, 6013, 1},
	"shards=3/reps=2/s1/hub3":                {0x21ee7b673c0bf9f4, 1507236, 84, 2107, 1},
	"shards=3/reps=2/s1/mid":                 {0x5c314886e84a96ea, 487148, 84, 661, 1},
	"shards=3/reps=2/s1/tail":                {0x796635e48631e307, 19740, 84, 21, 1},
	"shards=3/reps=2/s1/one-shard":           {0x79c8494cd6dc234, 8020, 84, 7, 1},
	"shards=3/reps=2/s8/uniform-a":           {0x31cba53120c93c70, 1075304, 84, 1552, 8},
	"shards=3/reps=2/s8/uniform-b":           {0xc44817e8057b76a9, 289644, 84, 381, 8},
	"shards=3/reps=2/s8/uniform-c":           {0x1776baccf3faee76, 483744, 84, 656, 8},
	"shards=3/reps=2/s8/one-shard":           {0x50462666bdf8afb2, 174848, 84, 236, 8},
	"shards=3/reps=2/s8/hub-and-tail":        {0x43f88d1c35912feb, 4210392, 132, 6185, 8},
	"shards=3/reps=2/s8/duplicates-isolated": {0xd17ac7de45bcfb96, 1360484, 84, 1886, 4},
	"shards=3/reps=2/s8/ppr":                 {0xcef4423970dce437, 401188, 84, 542, 8},
	"shards=3/reps=2/s8/rnd":                 {0x675ac9ddda0b6f58, 446592, 84, 617, 8},
	"shards=3/reps=2/s64/uniform-a":          {0xa7eaf86f85701f54, 3019736, 96, 4308, 64},
	"shards=3/reps=2/s64/uniform-b":          {0xd6e7c631e34063f6, 2570164, 96, 3639, 64},
	"shards=3/reps=2/s64/low-ids":            {0xf957333f830ede5b, 10426512, 210, 14370, 64},
	"shards=3/reps=2/s64/with-isolated":      {0xfeabe02a10e64ed1, 2678016, 96, 3795, 64},
}

// scopedGoldenGraph is a fixed power-law graph with hubs at the low ids, a
// sparse tail and isolated vertices at the high ones.
func scopedGoldenGraph(t testing.TB) *graph.Digraph {
	t.Helper()
	stream, err := gen.NewPowerLawStream(20_000, 100_000, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := stream.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// goldenQuery is one scoped query of the golden table: its sources and the
// config it changes from the base.
type goldenQuery struct {
	name    string
	sources []graph.VertexID
	tweak   func(*core.Config)
}

// scopedGoldenQueries builds the table's ~20 queries of 1, 8 and 64 ids over
// f's graph: an isolated source, the hubs, ids whose out-edges all lie on one
// shard of f's cut, uniform draws, duplicates, and the other score and
// selection policy.
func scopedGoldenQueries(t testing.TB, f *Fleet) []goldenQuery {
	t.Helper()
	g := f.g
	n := g.NumVertices()
	draw := func(salt uint64, k int) []graph.VertexID {
		ids := make([]graph.VertexID, k)
		for i := range ids {
			ids[i] = graph.VertexID(randx.Uint64n(uint64(n), 31, salt, uint64(i)))
		}
		return ids
	}
	isolated := graph.VertexID(n - 1)
	for g.OutDegree(isolated) != 0 {
		isolated--
	}
	// Sources whose every out-edge lies on shard 0: one touched shard
	// contributes all their gathers.
	var oneShard []graph.VertexID
	for v := graph.VertexID(0); int(v) < n && len(oneShard) < 8; v++ {
		if src := f.dep.sources(v); len(src) == 1 && src[0] == 0 {
			oneShard = append(oneShard, v)
		}
	}
	if len(oneShard) < 8 {
		t.Fatalf("only %d vertices keep their out-edges on shard 0", len(oneShard))
	}
	lowIDs := make([]graph.VertexID, 64)
	for i := range lowIDs {
		lowIDs[i] = graph.VertexID(i + 1)
	}
	return []goldenQuery{
		{name: "s1/isolated", sources: []graph.VertexID{isolated}},
		{name: "s1/hub0", sources: []graph.VertexID{0}},
		{name: "s1/hub3", sources: []graph.VertexID{3}},
		{name: "s1/mid", sources: []graph.VertexID{417}},
		{name: "s1/tail", sources: []graph.VertexID{12222}},
		{name: "s1/one-shard", sources: oneShard[:1]},
		{name: "s8/uniform-a", sources: draw(1, 8)},
		{name: "s8/uniform-b", sources: draw(2, 8)},
		{name: "s8/uniform-c", sources: draw(3, 8)},
		{name: "s8/one-shard", sources: oneShard},
		{name: "s8/hub-and-tail", sources: append([]graph.VertexID{0}, draw(4, 7)...)},
		{name: "s8/duplicates-isolated", sources: []graph.VertexID{isolated, 9, 9, isolated, 11500, 11500, 40, 9}},
		{name: "s8/ppr", sources: draw(6, 8), tweak: func(c *core.Config) { c.Score = mustScore(t, "PPR") }},
		{name: "s8/rnd", sources: draw(7, 8), tweak: func(c *core.Config) { c.Policy = core.SelectRnd }},
		{name: "s64/uniform-a", sources: draw(8, 64)},
		{name: "s64/uniform-b", sources: draw(9, 64)},
		{name: "s64/low-ids", sources: lowIDs},
		{name: "s64/with-isolated", sources: append(draw(12, 63), isolated)},
	}
}

// digestRows is FNV-1a over the deduplicated sources in ascending order, each
// followed by its row length and every prediction's vertex and score bits.
func digestRows(sources []graph.VertexID, row func(graph.VertexID) []core.Prediction) uint64 {
	srcs := slices.Clone(sources)
	slices.Sort(srcs)
	srcs = slices.Compact(srcs)
	h := fnv.New64a()
	var b [8]byte
	w := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, v := range srcs {
		r := row(v)
		w(uint64(v))
		w(uint64(len(r)))
		for _, p := range r {
			w(uint64(p.Vertex))
			w(math.Float64bits(p.Score))
		}
	}
	return h.Sum64()
}

// TestFleetScopedGolden holds scoped fleet queries to values recorded
// independently of the session and routing layouts: on in-process fleets of
// 2 and 3 shards with 1 and 2 replicas, every query's rows, cross bytes,
// cross messages and closure sizes come back exactly, through the dense and
// the sparse entry point alike. The rows are also Serial's, filtered to the
// sources.
func TestFleetScopedGolden(t *testing.T) {
	leakcheck.Check(t)
	g := scopedGoldenGraph(t)
	base := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 8, ThrGamma: 20, Seed: 42}
	oracles := map[string]core.Predictions{} // Serial's full runs, by score/policy
	for _, shape := range []struct{ shards, reps int }{{2, 1}, {2, 2}, {3, 1}, {3, 2}} {
		f, err := OpenFleet(g, FleetOptions{InProc: shape.shards, Replicas: shape.reps, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range scopedGoldenQueries(t, f) {
			key := fmt.Sprintf("shards=%d/reps=%d/%s", shape.shards, shape.reps, q.name)
			cfg := base
			if q.tweak != nil {
				q.tweak(&cfg)
			}
			cfg.Sources = q.sources
			pred, st, err := f.Predict(g, cfg)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got := fleetGolden{
				rows:       digestRows(cfg.Sources, func(v graph.VertexID) []core.Prediction { return pred[v] }),
				crossBytes: st.CrossBytes, crossMsgs: st.CrossMsgs,
				frontier: st.FrontierVertices, scored: st.ScoredVertices,
			}
			if want, ok := goldenFleetScoped[key]; !ok || got != want {
				t.Errorf("%q: %#v, want %#v", key, got, want)
			}
			// The sparse entry point runs the same query and hands back the
			// same rows.
			sparse, sst, err := f.PredictScoped(context.Background(), g, cfg)
			if err != nil {
				t.Fatalf("%s: scoped: %v", key, err)
			}
			gotSparse := fleetGolden{
				rows:       digestRows(sparse.Vertices, sparse.Row),
				crossBytes: sst.CrossBytes, crossMsgs: sst.CrossMsgs,
				frontier: sst.FrontierVertices, scored: sst.ScoredVertices,
			}
			if gotSparse != got || len(sparse.Vertices) != got.scored {
				t.Errorf("%q: PredictScoped gives %#v over %d sources, Predict %#v", key, gotSparse, len(sparse.Vertices), got)
			}
			variant := fmt.Sprintf("%s/%v", cfg.Score.Name, cfg.Policy)
			full, ok := oracles[variant]
			if !ok {
				oracle := cfg
				oracle.Sources = nil
				if full, err = core.ReferenceSnaple(g, oracle); err != nil {
					t.Fatal(err)
				}
				oracles[variant] = full
			}
			if d := digestRows(cfg.Sources, func(v graph.VertexID) []core.Prediction { return full[v] }); d != got.rows {
				t.Errorf("%q: rows differ from Serial's", key)
			}
		}
		f.Close()
	}
}

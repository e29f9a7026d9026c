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
var goldenFleetScoped = map[string]fleetGolden{
	"shards=2/reps=1/s1/isolated":            {0x558323f0cadf8968, 0, 0, 1, 1},
	"shards=2/reps=1/s1/hub0":                {0x9f2842b1abd927f0, 1556820, 48, 6013, 1},
	"shards=2/reps=1/s1/hub3":                {0x21ee7b673c0bf9f4, 570700, 30, 2107, 1},
	"shards=2/reps=1/s1/mid":                 {0x5c314886e84a96ea, 183396, 30, 661, 1},
	"shards=2/reps=1/s1/tail":                {0x796635e48631e307, 7396, 30, 21, 1},
	"shards=2/reps=1/s1/one-shard":           {0x6dcc516dcded15f7, 13324, 30, 42, 1},
	"shards=2/reps=1/s8/uniform-a":           {0x31cba53120c93c70, 411432, 30, 1552, 8},
	"shards=2/reps=1/s8/uniform-b":           {0xc44817e8057b76a9, 109932, 30, 381, 8},
	"shards=2/reps=1/s8/uniform-c":           {0x1776baccf3faee76, 183136, 30, 656, 8},
	"shards=2/reps=1/s8/one-shard":           {0x404a95382dbe4791, 46272, 30, 151, 8},
	"shards=2/reps=1/s8/hub-and-tail":        {0x43f88d1c35912feb, 1604400, 50, 6185, 8},
	"shards=2/reps=1/s8/duplicates-isolated": {0xd17ac7de45bcfb96, 516180, 30, 1886, 4},
	"shards=2/reps=1/s8/paths3":              {0xa0017336f469f13c, 3335984, 76, 9000, 8},
	"shards=2/reps=1/s8/ppr":                 {0xcef4423970dce437, 151972, 30, 542, 8},
	"shards=2/reps=1/s8/rnd":                 {0x675ac9ddda0b6f58, 169688, 30, 617, 8},
	"shards=2/reps=1/s64/uniform-a":          {0xa7eaf86f85701f54, 1151712, 38, 4308, 64},
	"shards=2/reps=1/s64/uniform-b":          {0xd6e7c631e34063f6, 980412, 38, 3639, 64},
	"shards=2/reps=1/s64/low-ids":            {0xf957333f830ede5b, 3973128, 82, 14370, 64},
	"shards=2/reps=1/s64/paths3":             {0x94bdec9824830755, 5698228, 112, 13907, 64},
	"shards=2/reps=1/s64/with-isolated":      {0xfeabe02a10e64ed1, 1023552, 38, 3795, 64},
	"shards=2/reps=2/s1/isolated":            {0x558323f0cadf8968, 0, 0, 1, 1},
	"shards=2/reps=2/s1/hub0":                {0x9f2842b1abd927f0, 3113364, 92, 6013, 1},
	"shards=2/reps=2/s1/hub3":                {0x21ee7b673c0bf9f4, 1141124, 56, 2107, 1},
	"shards=2/reps=2/s1/mid":                 {0x5c314886e84a96ea, 366516, 56, 661, 1},
	"shards=2/reps=2/s1/tail":                {0x796635e48631e307, 14516, 56, 21, 1},
	"shards=2/reps=2/s1/one-shard":           {0x6dcc516dcded15f7, 26372, 56, 42, 1},
	"shards=2/reps=2/s8/uniform-a":           {0x31cba53120c93c70, 822112, 56, 1552, 8},
	"shards=2/reps=2/s8/uniform-b":           {0xc44817e8057b76a9, 219180, 56, 381, 8},
	"shards=2/reps=2/s8/uniform-c":           {0x1776baccf3faee76, 365520, 56, 656, 8},
	"shards=2/reps=2/s8/one-shard":           {0x404a95382dbe4791, 91840, 56, 151, 8},
	"shards=2/reps=2/s8/hub-and-tail":        {0x43f88d1c35912feb, 3208152, 96, 6185, 8},
	"shards=2/reps=2/s8/duplicates-isolated": {0xd17ac7de45bcfb96, 1031948, 56, 1886, 4},
	"shards=2/reps=2/s8/paths3":              {0xa0017336f469f13c, 6671216, 148, 9000, 8},
	"shards=2/reps=2/s8/ppr":                 {0xcef4423970dce437, 303260, 56, 542, 8},
	"shards=2/reps=2/s8/rnd":                 {0x675ac9ddda0b6f58, 338648, 56, 617, 8},
	"shards=2/reps=2/s64/uniform-a":          {0xa7eaf86f85701f54, 2299072, 72, 4308, 64},
	"shards=2/reps=2/s64/uniform-b":          {0xd6e7c631e34063f6, 1956564, 72, 3639, 64},
	"shards=2/reps=2/s64/low-ids":            {0xf957333f830ede5b, 7941696, 160, 14370, 64},
	"shards=2/reps=2/s64/paths3":             {0x94bdec9824830755, 11392100, 220, 13907, 64},
	"shards=2/reps=2/s64/with-isolated":      {0xfeabe02a10e64ed1, 2042832, 72, 3795, 64},
	"shards=3/reps=1/s1/isolated":            {0x558323f0cadf8968, 0, 0, 1, 1},
	"shards=3/reps=1/s1/hub0":                {0x9f2842b1abd927f0, 2316472, 71, 6013, 1},
	"shards=3/reps=1/s1/hub3":                {0x21ee7b673c0bf9f4, 850340, 48, 2107, 1},
	"shards=3/reps=1/s1/mid":                 {0x5c314886e84a96ea, 274132, 45, 661, 1},
	"shards=3/reps=1/s1/tail":                {0x796635e48631e307, 11052, 45, 21, 1},
	"shards=3/reps=1/s1/one-shard":           {0x79c8494cd6dc234, 4520, 45, 7, 1},
	"shards=3/reps=1/s8/uniform-a":           {0x31cba53120c93c70, 609152, 45, 1552, 8},
	"shards=3/reps=1/s8/uniform-b":           {0xc44817e8057b76a9, 162816, 45, 381, 8},
	"shards=3/reps=1/s8/uniform-c":           {0x1776baccf3faee76, 272700, 45, 656, 8},
	"shards=3/reps=1/s8/one-shard":           {0x50462666bdf8afb2, 98688, 45, 236, 8},
	"shards=3/reps=1/s8/hub-and-tail":        {0x43f88d1c35912feb, 2386616, 72, 6185, 8},
	"shards=3/reps=1/s8/duplicates-isolated": {0xd17ac7de45bcfb96, 766736, 46, 1886, 4},
	"shards=3/reps=1/s8/paths3":              {0xa0017336f469f13c, 4921228, 114, 9000, 8},
	"shards=3/reps=1/s8/ppr":                 {0xcef4423970dce437, 225948, 45, 542, 8},
	"shards=3/reps=1/s8/rnd":                 {0x675ac9ddda0b6f58, 251968, 45, 617, 8},
	"shards=3/reps=1/s64/uniform-a":          {0xa7eaf86f85701f54, 1709124, 58, 4308, 64},
	"shards=3/reps=1/s64/uniform-b":          {0xd6e7c631e34063f6, 1453440, 51, 3639, 64},
	"shards=3/reps=1/s64/low-ids":            {0xf957333f830ede5b, 5857824, 117, 14370, 64},
	"shards=3/reps=1/s64/paths3":             {0x94bdec9824830755, 8376416, 166, 13907, 64},
	"shards=3/reps=1/s64/with-isolated":      {0xfeabe02a10e64ed1, 1514116, 53, 3795, 64},
	"shards=3/reps=2/s1/isolated":            {0x558323f0cadf8968, 0, 0, 1, 1},
	"shards=3/reps=2/s1/hub0":                {0x9f2842b1abd927f0, 4632564, 136, 6013, 1},
	"shards=3/reps=2/s1/hub3":                {0x21ee7b673c0bf9f4, 1700300, 90, 2107, 1},
	"shards=3/reps=2/s1/mid":                 {0x5c314886e84a96ea, 547884, 84, 661, 1},
	"shards=3/reps=2/s1/tail":                {0x796635e48631e307, 21724, 84, 21, 1},
	"shards=3/reps=2/s1/one-shard":           {0x79c8494cd6dc234, 8660, 84, 7, 1},
	"shards=3/reps=2/s8/uniform-a":           {0x31cba53120c93c70, 1217448, 84, 1552, 8},
	"shards=3/reps=2/s8/uniform-b":           {0xc44817e8057b76a9, 324844, 84, 381, 8},
	"shards=3/reps=2/s8/uniform-c":           {0x1776baccf3faee76, 544544, 84, 656, 8},
	"shards=3/reps=2/s8/one-shard":           {0x50462666bdf8afb2, 196544, 84, 236, 8},
	"shards=3/reps=2/s8/hub-and-tail":        {0x43f88d1c35912feb, 4772480, 138, 6185, 8},
	"shards=3/reps=2/s8/duplicates-isolated": {0xd17ac7de45bcfb96, 1532956, 86, 1886, 4},
	"shards=3/reps=2/s8/paths3":              {0xa0017336f469f13c, 9841600, 222, 9000, 8},
	"shards=3/reps=2/s8/ppr":                 {0xcef4423970dce437, 451108, 84, 542, 8},
	"shards=3/reps=2/s8/rnd":                 {0x675ac9ddda0b6f58, 503104, 84, 617, 8},
	"shards=3/reps=2/s64/uniform-a":          {0xa7eaf86f85701f54, 3413792, 110, 4308, 64},
	"shards=3/reps=2/s64/uniform-b":          {0xd6e7c631e34063f6, 2902516, 96, 3639, 64},
	"shards=3/reps=2/s64/low-ids":            {0xf957333f830ede5b, 11710984, 228, 14370, 64},
	"shards=3/reps=2/s64/paths3":             {0x94bdec9824830755, 16748372, 326, 13907, 64},
	"shards=3/reps=2/s64/with-isolated":      {0xfeabe02a10e64ed1, 3023856, 100, 3795, 64},
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
// shard of f's cut, uniform draws, duplicates, and the other path length,
// score and selection policy.
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
	paths3 := func(c *core.Config) { c.Paths = 3 }
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
		{name: "s8/paths3", sources: draw(5, 8), tweak: paths3},
		{name: "s8/ppr", sources: draw(6, 8), tweak: func(c *core.Config) { c.Score = mustScore(t, "PPR") }},
		{name: "s8/rnd", sources: draw(7, 8), tweak: func(c *core.Config) { c.Policy = core.SelectRnd }},
		{name: "s64/uniform-a", sources: draw(8, 64)},
		{name: "s64/uniform-b", sources: draw(9, 64)},
		{name: "s64/low-ids", sources: lowIDs},
		{name: "s64/paths3", sources: draw(11, 64), tweak: paths3},
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
	checkGoroutines(t)
	g := scopedGoldenGraph(t)
	base := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 8, ThrGamma: 20, Seed: 42}
	oracles := map[string]core.Predictions{} // Serial's full runs, by score/policy/paths
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
			variant := fmt.Sprintf("%s/%v/%d", cfg.Score.Name, cfg.Policy, cfg.Paths)
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

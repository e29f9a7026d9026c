package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"snaple/internal/core"
	"snaple/internal/engine"
	"snaple/internal/gen"
	"snaple/internal/graph"
	"snaple/internal/randx"
)

// The prediction config every program under test runs with. The flags the
// harness passes to snaple-serve are its defaults, which are these values;
// the run seed (truncation, rnd policy) is the programs' default 42 and is
// deliberately not the bench seed, which only shapes the inputs.
const (
	cfgScore  = "linearSum"
	cfgAlpha  = 0.9
	cfgK      = 20
	cfgKLocal = 20
	cfgThr    = 200
	cfgPolicy = "max"
	cfgPaths  = 2
	cfgSeed   = 42

	// requestK is the k every /v1/predict request asks for.
	requestK = 10
)

// size is the generated graph's shape. The committed benchmark always runs
// fullSize; the smoke test runs a small one.
type size struct {
	vertices int
	edges    int64
}

// fullSize: a full Local run takes ~1.5 s and a 1-source scoped run a few
// ms on a 2-core box, so the O(|V|) per-query artefact (ROADMAP item 1) is
// visible next to the closure work.
var fullSize = size{vertices: 200_000, edges: 2_000_000}

func coreConfig() core.Config {
	spec, err := core.ScoreByName(cfgScore, cfgAlpha)
	if err != nil {
		panic(err) // constant name
	}
	pol, err := core.PolicyByName(cfgPolicy)
	if err != nil {
		panic(err) // constant name
	}
	return core.Config{Score: spec, K: cfgK, KLocal: cfgKLocal, ThrGamma: cfgThr, Policy: pol, Paths: cfgPaths, Seed: cfgSeed}
}

// input is everything one invocation generates from its seed: the graph on
// disk and in memory, the id permutation request streams draw through, and
// the Serial oracle as one hash per vertex row.
type input struct {
	seed uint64
	dir  string // scratch directory, removed on exit
	sgr  string // G.sgr, version-2 snapshot
	g    *graph.Digraph
	cfg  core.Config
	perm []uint32 // seeded permutation: rank in a request distribution -> vertex id

	// oracleK[v] / oracleReq[v] hash the first cfgK / requestK predictions
	// of v's Serial row.
	oracleK, oracleReq []uint64

	genSeconds    float64 // generate + build + write
	buildEdgesPS  float64 // graph.BuildStream throughput
	serialSeconds float64 // the oracle run's wall
}

// rowHasher folds (target, score bits) pairs FNV-1a style. Scores are
// compared bit for bit: every backend is bit-identical to Serial, and JSON
// float64 round-trips exactly.
type rowHasher uint64

func newRowHasher() rowHasher { return 14695981039346656037 }

func (h *rowHasher) add(id uint32, score float64) {
	x := uint64(*h)
	x = (x ^ uint64(id)) * 1099511628211
	x = (x ^ math.Float64bits(score)) * 1099511628211
	*h = rowHasher(x)
}

func hashRow(row []core.Prediction, k int) uint64 {
	h := newRowHasher()
	for i, p := range row {
		if i == k {
			break
		}
		h.add(uint32(p.Vertex), p.Score)
	}
	return uint64(h)
}

// foldHashes folds per-row hashes, in vertex order, down to one word: what
// the batch-full child reports per pass.
func foldHashes(rows []uint64) uint64 {
	x := uint64(newRowHasher())
	for _, h := range rows {
		x = (x ^ h) * 1099511628211
	}
	return x
}

func foldRows(preds core.Predictions, k int) uint64 {
	rows := make([]uint64, len(preds))
	for v, row := range preds {
		rows[v] = hashRow(row, k)
	}
	return foldHashes(rows)
}

// generate builds the inputs under parent (a directory inside the
// checkout). The caller removes in.dir.
func generate(parent string, seed uint64, sz size) (*input, error) {
	dir, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return nil, err
	}
	in := &input{seed: seed, dir: dir, sgr: filepath.Join(dir, "G.sgr"), cfg: coreConfig()}
	start := time.Now()
	stream, err := gen.NewPowerLawStream(sz.vertices, sz.edges, 2, seed)
	if err != nil {
		return in, err
	}
	t := time.Now()
	in.g, err = graph.BuildStream(stream.N, 0, stream.ForEachShard)
	if err != nil {
		return in, err
	}
	in.buildEdgesPS = float64(sz.edges) / time.Since(t).Seconds()
	if err := writeFile(in.sgr, func(f *os.File) error { return graph.WriteSnapshot(f, in.g) }); err != nil {
		return in, err
	}
	in.genSeconds = time.Since(start).Seconds()

	in.perm = make([]uint32, sz.vertices)
	for i, v := range randx.NewRand(seed, 1).Perm(sz.vertices) {
		in.perm[i] = uint32(v)
	}

	preds, st, err := engine.Serial{}.Predict(in.g, in.cfg)
	if err != nil {
		return in, fmt.Errorf("oracle: %w", err)
	}
	in.serialSeconds = st.WallSeconds
	in.oracleK = make([]uint64, len(preds))
	in.oracleReq = make([]uint64, len(preds))
	for v, row := range preds {
		in.oracleK[v] = hashRow(row, cfgK)
		in.oracleReq[v] = hashRow(row, requestK)
	}
	return in, nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

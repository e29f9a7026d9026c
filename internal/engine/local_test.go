package engine

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"snaple/internal/core"
	"snaple/internal/gen"
	"snaple/internal/graph"
)

func localCfg(t testing.TB) core.Config {
	t.Helper()
	return core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 4, Seed: 1}
}

// predictOnly has the shape of a tracing wrapper: it embeds a Backend and
// overrides Predict alone, which hides the embedded value's PredictScoped.
type predictOnly struct {
	Backend
	calls int
}

func (p *predictOnly) Predict(g graph.View, cfg core.Config) (core.Predictions, Stats, error) {
	p.calls++
	return p.Backend.Predict(g, cfg)
}

// TestPredictScopedRunsWrapperPredict pins the fallback for wrappers: a
// backend that hides PredictScoped is still run through its own Predict,
// for a scoped and a full config alike, and answers as the wrapped backend.
func TestPredictScopedRunsWrapperPredict(t *testing.T) {
	g := testGraph(t, 300, 7)
	be := &predictOnly{Backend: Local{Workers: 2}}
	if _, ok := Backend(be).(ScopedBackend); ok {
		t.Fatal("the wrapper exposes PredictScoped")
	}
	scoped := localCfg(t)
	scoped.Sources = []graph.VertexID{200, 7, 50, 7}
	for _, cfg := range []core.Config{scoped, localCfg(t)} {
		want, _, err := PredictScoped(context.Background(), Local{Workers: 2}, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		calls := be.calls
		got, _, err := PredictScoped(context.Background(), be, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if be.calls != calls+1 {
			t.Fatalf("sources=%v: wrapper's Predict ran %d times, want once", cfg.Sources, be.calls-calls)
		}
		if !reflect.DeepEqual(got.Vertices, want.Vertices) || !reflect.DeepEqual(got.Dense(g.NumVertices()), want.Dense(g.NumVertices())) {
			t.Fatalf("sources=%v: wrapper answers differently from the backend it wraps", cfg.Sources)
		}
	}
}

// allocatedBy returns the heap bytes fn allocates: the smallest exact
// (ReadMemStats) delta of a few calls, so a stray runtime allocation cannot
// inflate it.
func allocatedBy(fn func()) uint64 {
	best := ^uint64(0)
	for range 5 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	return best
}

// TestScopedAllocationTracksClosure is the O(closure) pin: the same
// one-source query on a graph and on that graph padded with ten times as
// many isolated vertices allocates about the same through the sparse entry
// point (it scaled with |V| when arenas, frontier bitmaps, the degree table
// and the result were |V|-long), and the dense Predict adds only its
// |V|-long table of row headers.
func TestScopedAllocationTracksClosure(t *testing.T) {
	const n = 50_000 // enough that the closure keeps rank-indexed arenas
	small := padGraph(t, testGraph(t, 300, 7), n)
	big := padGraph(t, small, 11*n)
	cfg := localCfg(t)
	cfg.ThrGamma = 10
	cfg.Sources = []graph.VertexID{17}
	scoped := func(g graph.View) uint64 {
		return allocatedBy(func() {
			if _, _, err := (Local{}).PredictScoped(context.Background(), g, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	onSmall, onBig := scoped(small), scoped(big)
	if lo, hi := min(onSmall, onBig), max(onSmall, onBig); float64(hi) > 1.5*float64(lo) {
		t.Errorf("PredictScoped allocated %d B on %d vertices and %d B on %d: not closure-sized",
			onSmall, small.NumVertices(), onBig, big.NumVertices())
	}
	if onBig > 100<<10 {
		t.Errorf("PredictScoped allocated %d B for a one-source closure, want <= 100 KiB", onBig)
	}
	dense := allocatedBy(func() {
		if _, _, err := (Local{}).Predict(big, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if header := uint64(24 * big.NumVertices()); dense < header || dense > header+2*onBig {
		t.Errorf("dense Predict allocated %d B, want the %d B row-header table plus the run's ~%d B",
			dense, header, onBig)
	}
}

// TestFullPassAllocatesWhatItRetains pins step 3's block chain: a full
// Local pass on a power-law graph allocates at most 1.3× what it keeps —
// the trunc and sims arenas, the retained predictions and the rows table.
// Growing one prediction buffer per worker by doubling allocated several
// times the output instead. Each worker may leave up to its last block
// unused, so the ratio is pinned at a fixed worker count.
func TestFullPassAllocatesWhatItRetains(t *testing.T) {
	stream, err := gen.NewPowerLawStream(20_000, 200_000, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := stream.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 20, KLocal: 20, ThrGamma: 200, Seed: 42}
	r, err := core.NewStepRunner(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := r.NewScratch()
	n := g.NumVertices()
	var truncLen, simsLen int
	for u := range n {
		truncLen += r.TruncateCount(graph.VertexID(u), s)
		simsLen += r.RelayCount(graph.VertexID(u))
	}
	preds, st, err := Local{Workers: 2}.Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	predLen := 0
	for _, row := range preds {
		predLen += len(row)
	}
	retained := truncLen*int(unsafe.Sizeof(graph.VertexID(0))) +
		simsLen*int(unsafe.Sizeof(core.VertexSim{})) +
		predLen*int(unsafe.Sizeof(core.Prediction{})) +
		n*int(unsafe.Sizeof([]core.Prediction(nil))) + // the rows table
		2*(n+1)*int(unsafe.Sizeof(int64(0))) // the arenas' offsets
	ratio := float64(st.AllocBytes) / float64(retained)
	t.Logf("full pass allocated %d B for %d B retained (%.2f×)", st.AllocBytes, retained, ratio)
	if ratio > 1.3 {
		t.Errorf("allocation is %.2f× the retained bytes, want <= 1.3×", ratio)
	}
}

// TestLocalIsolatedSourceDoesClosureSizedWork pins explicit fullness on the
// engine side: an empty scope is a pass over no vertex — not, as "nil means
// every vertex" once made it, a pass over all of V — and a source without
// out-edges is a one-vertex closure. The run returns the source's empty row
// and allocates nothing sized by the graph.
func TestLocalIsolatedSourceDoesClosureSizedWork(t *testing.T) {
	g := padGraph(t, testGraph(t, 300, 7), 200_000)
	r, err := core.NewStepRunner(g, localCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, verts := range [][]graph.VertexID{nil, {}} {
		visits := 0
		p := listPass(g, verts)
		forEachVertex(r, 4, p, func(*worker, int, graph.VertexID) { visits++ })
		if p.len() != 0 || visits != 0 {
			t.Fatalf("pass over an empty member list has length %d and made %d visits", p.len(), visits)
		}
	}
	cfg := localCfg(t)
	cfg.Sources = []graph.VertexID{150_000}
	var sparse core.ScopedPredictions
	var st Stats
	bytes := allocatedBy(func() {
		if sparse, st, err = (Local{}).PredictScoped(context.Background(), g, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if want := (core.ScopedPredictions{Vertices: cfg.Sources, Rows: [][]core.Prediction{nil}}); !reflect.DeepEqual(sparse, want) {
		t.Errorf("result %+v, want the source's empty row", sparse)
	}
	if st.FrontierVertices != 1 || st.ScoredVertices != 1 {
		t.Errorf("stats %+v, want a one-vertex closure", st)
	}
	if bytes > 16<<10 {
		t.Errorf("isolated source allocated %d B on a %d-vertex graph", bytes, g.NumVertices())
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snaple/internal/core"
	"snaple/internal/engine"
	"snaple/internal/graph"
	"snaple/internal/leakcheck"
	"snaple/internal/randx"
)

func testGraph(t testing.TB, n int, seed uint64) *graph.Digraph {
	t.Helper()
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			p := 8.0 / float64(n)
			if u%50 == 0 {
				p = 0.25
			}
			if randx.Float64(seed, uint64(u), uint64(v)) < p {
				edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)})
			}
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testConfig(t testing.TB, k int) core.Config {
	t.Helper()
	spec, err := core.ScoreByName("linearSum", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{Score: spec, K: k, KLocal: 4, ThrGamma: 10, Seed: 42}
}

// countingBackend wraps a Backend and counts Predict calls and the source
// vertices they were scoped to.
type countingBackend struct {
	inner   engine.Backend
	calls   atomic.Int64
	sources atomic.Int64
}

func (c *countingBackend) Name() string { return c.inner.Name() }
func (c *countingBackend) Predict(g graph.View, cfg core.Config) (core.Predictions, engine.Stats, error) {
	c.calls.Add(1)
	c.sources.Add(int64(len(cfg.Sources)))
	return c.inner.Predict(g, cfg)
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	leakcheck.Check(t)
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postPredict(t *testing.T, url string, body string) (*http.Response, PredictResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr PredictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, pr
}

// TestPredictMatchesReference holds the served answers to the full-run
// oracle: for any ids and any k ≤ kmax, the response must be the reference
// predictions truncated to k.
func TestPredictMatchesReference(t *testing.T) {
	g := testGraph(t, 200, 3)
	cfg := testConfig(t, 10)
	full, err := core.ReferenceSnaple(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Graph: g, Config: cfg})

	for _, k := range []int{0, 1, 5, 10} {
		ids := []uint32{0, 17, 50, 199, 17} // duplicate collapses
		body, _ := json.Marshal(PredictRequest{IDs: ids, K: k})
		resp, pr := postPredict(t, ts.URL, string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("k=%d: status %d", k, resp.StatusCode)
		}
		if len(pr.Results) != 4 {
			t.Fatalf("k=%d: %d results, want 4 (duplicate id collapsed)", k, len(pr.Results))
		}
		effK := k
		if effK == 0 {
			effK = 10
		}
		for _, vr := range pr.Results {
			want := full[vr.ID]
			if len(want) > effK {
				want = want[:effK]
			}
			got := make([]core.Prediction, len(vr.Predictions))
			for i, p := range vr.Predictions {
				got[i] = core.Prediction{Vertex: graph.VertexID(p.ID), Score: p.Score}
			}
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual([]core.Prediction(want), got) {
				t.Fatalf("k=%d vertex %d: want %v, got %v", k, vr.ID, want, got)
			}
		}
	}
}

// TestSparseAndDenseBackendsServeIdentically pins engine.PredictScoped's two
// arms behind the server: a backend offering the sparse form (engine.Local)
// and one offering only the dense Backend.Predict (countingBackend, which
// hides Local's PredictScoped the way Sim, Serial and wrappers do)
// must produce byte-identical responses and leave byte-identical rows in
// the cache — over sources whose closures are small, past core's arena rule
// and empty.
func TestSparseAndDenseBackendsServeIdentically(t *testing.T) {
	// 200 vertices with edges, then isolated padding: small closures get
	// rank-indexed arenas in core (its rules compare them to the vertex range).
	b := graph.NewBuilder(200 * 64)
	testGraph(t, 200, 3).ForEachEdge(b.AddEdge)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 10)
	dense := &countingBackend{inner: engine.Local{}}
	if _, sparse := engine.Backend(dense).(engine.ScopedBackend); sparse {
		t.Fatal("the dense test double offers the sparse form")
	}
	sSparse, tsSparse := newTestServer(t, Options{Graph: g, Backend: engine.Local{}, Config: cfg})
	sDense, tsDense := newTestServer(t, Options{Graph: g, Backend: dense, Config: cfg})

	normalized := func(url, body string) []byte {
		resp, pr := postPredict(t, url, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", body, resp.StatusCode)
		}
		pr.ServedMs = 0 // the one field that is a measurement
		out, err := json.Marshal(pr)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, body := range []string{
		`{"ids":[17]}`,                         // sparse closure
		`{"ids":[0,50,100,150,3,3,199],"k":4}`, // hubs: promoted closure
		`{"ids":[5000,17,6000],"k":2}`,         // isolated ids around a cached one
		`{"ids":[12799]}`,
	} {
		if a, b := normalized(tsSparse.URL, body), normalized(tsDense.URL, body); !bytes.Equal(a, b) {
			t.Fatalf("%s:\nsparse backend: %s\ndense backend:  %s", body, a, b)
		}
	}
	if dense.calls.Load() == 0 {
		t.Fatal("the dense backend was never run")
	}
	rows := func(s *Server) map[graph.VertexID][]core.Prediction {
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		out := make(map[graph.VertexID][]core.Prediction, len(s.cache.items))
		for k, el := range s.cache.items {
			out[k] = el.Value.(*lruEntry).preds
		}
		return out
	}
	if a, b := rows(sSparse), rows(sDense); len(a) != 10 || !reflect.DeepEqual(a, b) {
		t.Fatalf("cache rows differ (or are not the 10 distinct ids):\nsparse backend: %v\ndense backend:  %v", a, b)
	}
}

// statsz reads the server's /statsz report.
func statsz(t *testing.T, base string) Snapshot {
	t.Helper()
	var snap Snapshot
	getJSON(t, base+"/statsz", &snap)
	return snap
}

// TestMicroBatchingCoalesces pins the batching contract: a miss on an idle
// server runs alone, with nothing queued behind it; misses that arrive while
// a run is in flight wait for it and then share one run; and identical ids
// are served from the cache forever after.
func TestMicroBatchingCoalesces(t *testing.T) {
	const parked = 7
	// entered holds a signal for every run there could be, one per request,
	// so that a collector that fails to coalesce fails the count below
	// instead of blocking in the backend.
	be := &gatedBackend{Backend: engine.Local{Workers: 1}, entered: make(chan struct{}, parked+1), release: make(chan struct{})}
	s, ts := newTestServer(t, Options{Graph: testGraph(t, 120, 5), Backend: be, Config: testConfig(t, 5)})
	release := sync.OnceFunc(func() { close(be.release) })
	t.Cleanup(release) // runs before the server's cleanup: Close waits for the run

	var wg sync.WaitGroup
	results := make([]map[graph.VertexID][]core.Prediction, parked+1)
	ask := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, _, err := s.predict([]graph.VertexID{graph.VertexID(i * 10), graph.VertexID(i*10 + 5)})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = rows
		}()
	}
	ask(0)
	<-be.entered // an idle collector ran request 0 alone; its run is blocked
	if snap := statsz(t, ts.URL); snap.Queued != 0 || snap.PredictRuns != 1 || be.calls.Load() != 1 {
		t.Fatalf("/statsz with request 0 in the backend: queued %d, runs %d, backend calls %d; want 0, 1, 1",
			snap.Queued, snap.PredictRuns, be.calls.Load())
	}
	// Distinct id sets sent while the run is in flight: they park on the
	// collector, which folds all of them into the next run.
	for i := 1; i <= parked; i++ {
		ask(i)
	}
	for deadline := time.Now().Add(10 * time.Second); statsz(t, ts.URL).Queued != parked; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("/statsz queued never reached %d", parked)
		}
	}
	release()
	wg.Wait()
	if got := be.calls.Load(); got != 2 {
		t.Fatalf("backend ran %d times, want 2: one for the idle server's request and one for the %d parked behind it", got, parked)
	}
	if snap := statsz(t, ts.URL); snap.Queued != 0 || snap.PredictRuns != 2 {
		t.Fatalf("/statsz after the runs: queued %d, runs %d", snap.Queued, snap.PredictRuns)
	}
	for i, rows := range results {
		if len(rows) != 2 {
			t.Fatalf("request %d answered %d rows, want 2", i, len(rows))
		}
	}

	// Same ids again: pure cache hits, no new backend run.
	rows, hits, err := s.predict([]graph.VertexID{0, 5, 70})
	if err != nil {
		t.Fatal(err)
	}
	if hits != 3 {
		t.Fatalf("cache hits = %d, want 3", hits)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	if got := be.calls.Load(); got != 2 {
		t.Fatalf("cached query re-ran the backend (%d calls)", got)
	}
}

// TestTickLargerThanCache pins the eviction-under-pressure contract: when
// one tick computes more vertices than the LRU can hold, every request of
// the tick is still answered from the run's own output — cache pressure
// may evict rows but can never turn a real answer into an empty one.
func TestTickLargerThanCache(t *testing.T) {
	leakcheck.Check(t)
	g := testGraph(t, 200, 3)
	cfg := testConfig(t, 5)
	full, err := core.ReferenceSnaple(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Graph: g, Config: cfg, CacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ids := make([]graph.VertexID, 20) // 5x the cache capacity, one tick
	for i := range ids {
		ids[i] = graph.VertexID(i * 7)
	}
	rows, hits, err := s.predict(ids)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 0 {
		t.Fatalf("cold tick reported %d hits", hits)
	}
	for _, v := range ids {
		want := full[v]
		got := rows[v]
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual([]core.Prediction(want), got) {
			t.Fatalf("vertex %d: got %v, want %v (evicted mid-tick?)", v, got, want)
		}
	}
	if s.cache.len() != 4 {
		t.Fatalf("cache holds %d entries, capacity 4", s.cache.len())
	}
}

// gatedBackend wraps a Backend so that each run signals entered as it
// starts and then blocks until release is closed.
type gatedBackend struct {
	engine.Backend
	calls   atomic.Int64
	entered chan struct{}
	release chan struct{}
}

func (b *gatedBackend) Predict(g graph.View, cfg core.Config) (core.Predictions, engine.Stats, error) {
	b.calls.Add(1)
	b.entered <- struct{}{}
	<-b.release
	return b.Backend.Predict(g, cfg)
}

// TestCachedRequestAnsweredDuringRun pins that hits never queue behind
// misses: while another request's run is blocked in the backend, a fully
// cached request is answered from the cache.
func TestCachedRequestAnsweredDuringRun(t *testing.T) {
	leakcheck.Check(t)
	be := &gatedBackend{Backend: engine.Local{Workers: 1}, entered: make(chan struct{}, 1), release: make(chan struct{})}
	s, err := New(Options{Graph: testGraph(t, 100, 7), Backend: be, Config: testConfig(t, 5)})
	if err != nil {
		t.Fatal(err)
	}
	release := sync.OnceFunc(func() { close(be.release) })
	t.Cleanup(s.Close)
	t.Cleanup(release) // runs first: Close waits for the collector's run
	s.cache.put(3, []core.Prediction{{Vertex: 9, Score: 1}})
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.predict([]graph.VertexID{1})
		errc <- err
	}()
	<-be.entered // vertex 1's run is blocked in the backend

	done := make(chan struct{})
	go func() {
		defer close(done)
		rows, hits, err := s.predict([]graph.VertexID{3})
		if err != nil || hits != 1 || len(rows[3]) != 1 {
			t.Errorf("rows=%v hits=%d err=%v", rows, hits, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a fully cached request waited for another request's run")
	}
	release()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestWaitingMissServedFromCache pins the tick's second cache read: a miss
// whose row another tick cached while it waited for its own tick is
// answered from the cache, without a second run.
func TestWaitingMissServedFromCache(t *testing.T) {
	leakcheck.Check(t)
	be := &countingBackend{inner: engine.Local{Workers: 1}}
	s, err := New(Options{Graph: testGraph(t, 100, 7), Backend: be, Config: testConfig(t, 5)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	row := []core.Prediction{{Vertex: 9, Score: 1}}
	s.cache.put(1, row) // vertex 1 missed in its handler, then another tick cached it
	req := &batchReq{ids: []graph.VertexID{1, 2}, resp: make(chan batchResp, 1)}
	s.runBatch([]*batchReq{req}, map[graph.VertexID]bool{1: true, 2: true})
	resp := <-req.resp
	if resp.err != nil || !reflect.DeepEqual(resp.rows[1], row) || resp.rows[2] == nil {
		t.Fatalf("rows=%v err=%v, want vertex 1's cached row and a computed row for 2", resp.rows, resp.err)
	}
	if got := be.sources.Load(); be.calls.Load() != 1 || got != 1 {
		t.Fatalf("backend ran %d times over %d sources, want once over vertex 2 alone", be.calls.Load(), got)
	}
}

// TestStatszCountsDistinctMisses pins /statsz's miss count to distinct ids:
// a repeated id is asked for twice but computed (or missed) once.
func TestStatszCountsDistinctMisses(t *testing.T) {
	_, ts := newTestServer(t, Options{Graph: testGraph(t, 100, 7), Config: testConfig(t, 5)})
	for _, body := range []string{`{"ids":[5]}`, `{"ids":[5,5]}`} {
		if resp, _ := postPredict(t, ts.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", body, resp.StatusCode)
		}
	}
	var snap Snapshot
	getJSON(t, ts.URL+"/statsz", &snap)
	if snap.IDs != 3 || snap.CacheHits != 1 || snap.CacheMisses != 1 || snap.CacheHitRate != 0.5 {
		t.Fatalf("ids=%d hits=%d misses=%d rate=%v, want 3/1/1/0.5", snap.IDs, snap.CacheHits, snap.CacheMisses, snap.CacheHitRate)
	}
}

// failAfterBackend wraps a Backend whose runs fail once it has answered ok
// of them.
type failAfterBackend struct {
	engine.Backend
	ok    int
	calls atomic.Int64
}

func (b *failAfterBackend) Predict(g graph.View, cfg core.Config) (core.Predictions, engine.Stats, error) {
	if b.calls.Add(1) > int64(b.ok) {
		return nil, engine.Stats{}, errors.New("backend down")
	}
	return b.Backend.Predict(g, cfg)
}

// TestStatszCountsHitsOfFailedRequests pins /statsz's cache counts on the
// failure path: a request whose misses' run fails was still answered its
// hits from the cache, and they count as hits, not misses.
func TestStatszCountsHitsOfFailedRequests(t *testing.T) {
	be := &failAfterBackend{Backend: engine.Local{Workers: 1}, ok: 1}
	_, ts := newTestServer(t, Options{Graph: testGraph(t, 100, 7), Backend: be, Config: testConfig(t, 5)})
	for _, req := range []struct {
		body   string
		status int
	}{{`{"ids":[5]}`, http.StatusOK}, {`{"ids":[5,6]}`, http.StatusInternalServerError}} {
		if resp, _ := postPredict(t, ts.URL, req.body); resp.StatusCode != req.status {
			t.Fatalf("%s: status %d, want %d", req.body, resp.StatusCode, req.status)
		}
	}
	var snap Snapshot
	getJSON(t, ts.URL+"/statsz", &snap)
	if snap.CacheHits != 1 || snap.CacheMisses != 2 || snap.Errors != 1 {
		t.Fatalf("hits=%d misses=%d errors=%d, want 1/2/1", snap.CacheHits, snap.CacheMisses, snap.Errors)
	}
}

// TestStatsz exercises the metrics endpoint end to end.
func TestStatsz(t *testing.T) {
	g := testGraph(t, 100, 7)
	_, ts := newTestServer(t, Options{Graph: g, Config: testConfig(t, 5)})

	for i := 0; i < 3; i++ {
		resp, _ := postPredict(t, ts.URL, `{"ids":[1,2,3]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests != 3 || snap.IDs != 9 {
		t.Fatalf("requests=%d ids=%d, want 3/9", snap.Requests, snap.IDs)
	}
	if snap.CacheHits < 6 { // requests 2 and 3 are fully cached
		t.Fatalf("cache_hits = %d, want >= 6", snap.CacheHits)
	}
	if snap.CacheHitRate <= 0 || snap.CacheHitRate > 1 {
		t.Fatalf("cache_hit_rate = %v", snap.CacheHitRate)
	}
	if snap.PredictRuns < 1 || snap.Batches < snap.PredictRuns {
		t.Fatalf("batches=%d runs=%d", snap.Batches, snap.PredictRuns)
	}
	if snap.QPS <= 0 {
		t.Fatalf("qps = %v", snap.QPS)
	}
	if snap.P99Ms < snap.P50Ms {
		t.Fatalf("p99 %v < p50 %v", snap.P99Ms, snap.P50Ms)
	}
	if snap.CacheSize != 3 || snap.CacheCap != 65536 {
		t.Fatalf("cache size/cap = %d/%d", snap.CacheSize, snap.CacheCap)
	}
}

// TestHealthz pins the liveness payload.
func TestHealthz(t *testing.T) {
	g := testGraph(t, 50, 1)
	_, ts := newTestServer(t, Options{Graph: g, Config: testConfig(t, 7)})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Vertices != g.NumVertices() || h.Edges != g.NumEdges() || h.MaxK != 7 || h.Engine != "local" {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestPredictRejects pins the request-validation errors.
func TestPredictRejects(t *testing.T) {
	g := testGraph(t, 50, 1)
	_, ts := newTestServer(t, Options{Graph: g, Config: testConfig(t, 5), BatchMax: 8})

	cases := []struct {
		name, body string
		status     int
	}{
		{"empty ids", `{"ids":[]}`, http.StatusBadRequest},
		{"bad json", `{"ids":`, http.StatusBadRequest},
		{"k too big", `{"ids":[1],"k":6}`, http.StatusBadRequest},
		{"negative k", `{"ids":[1],"k":-1}`, http.StatusBadRequest},
		{"id out of range", `{"ids":[50]}`, http.StatusBadRequest},
		{"too many ids", fmt.Sprintf(`{"ids":%v}`, jsonIDs(9)), http.StatusBadRequest},
		{"ok", `{"ids":[1],"k":5}`, http.StatusOK},
	}
	for _, c := range cases {
		resp, _ := postPredict(t, ts.URL, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET predict: status %d", resp.StatusCode)
	}
}

func jsonIDs(n int) string {
	b, _ := json.Marshal(make([]int, n))
	return string(b)
}

// TestNewRejects pins the constructor's validation.
func TestNewRejects(t *testing.T) {
	g := testGraph(t, 20, 1)
	if _, err := New(Options{Config: testConfig(t, 5)}); err == nil {
		t.Error("nil graph accepted")
	}
	cfg := testConfig(t, 5)
	cfg.Sources = []graph.VertexID{1}
	if _, err := New(Options{Graph: g, Config: cfg}); err == nil {
		t.Error("preset Sources accepted")
	}
	bad := testConfig(t, 5)
	bad.K = -3
	if _, err := New(Options{Graph: g, Config: bad}); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestLRU pins the cache's eviction and refresh behaviour.
func TestLRU(t *testing.T) {
	c := newLRU(2)
	k := func(v int) graph.VertexID { return graph.VertexID(v) }
	p := func(v int) []core.Prediction { return []core.Prediction{{Vertex: graph.VertexID(v)}} }

	c.put(k(1), p(1))
	c.put(k(2), p(2))
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("1 evicted early")
	}
	c.put(k(3), p(3)) // evicts 2 (1 was refreshed by the get)
	if _, ok := c.get(k(2)); ok {
		t.Fatal("2 survived eviction")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("1 evicted despite being MRU")
	}
	if got, _ := c.get(k(3)); !reflect.DeepEqual(got, p(3)) {
		t.Fatalf("3 = %v", got)
	}
	c.put(k(3), p(9)) // refresh in place
	if got, _ := c.get(k(3)); !reflect.DeepEqual(got, p(9)) {
		t.Fatalf("refresh lost: %v", got)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
}

// chainGraph builds 0→1→2→3→4 and 5→6→7→8→9: two components whose reverse
// closures never meet, so frontier-aware invalidation is exactly testable.
func chainGraph(t testing.TB) *graph.Digraph {
	t.Helper()
	var edges []graph.Edge
	for _, c := range [][2]int{{0, 4}, {5, 9}} {
		for u := c[0]; u < c[1]; u++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(u + 1)})
		}
	}
	g, err := graph.FromEdges(10, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestMutationInvalidatesFrontier pins the frontier-aware invalidation
// contract: a mutation batch drops exactly the cached rows inside the
// mutated sources' reverse closure — rows outside it keep serving from
// cache, rows inside it are recomputed on next query.
func TestMutationInvalidatesFrontier(t *testing.T) {
	g := chainGraph(t)
	be := &countingBackend{inner: engine.Local{Workers: 1}}
	s, ts := newTestServer(t, Options{
		Graph: g, Backend: be, Mutable: true,
		Config: testConfig(t, 5),
	})

	// Warm the cache: one row in each component.
	for _, id := range []string{`{"ids":[2]}`, `{"ids":[7]}`} {
		if resp, _ := postPredict(t, ts.URL, id); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm predict: status %d", resp.StatusCode)
		}
	}
	warmRuns := be.calls.Load()

	// Mutate inside the first component: add 2→0. The dirty reverse closure
	// of source 2 is {2, 1, 0} — vertex 7 is untouched.
	resp, body := postJSON(t, ts.URL+"/v1/edges", `{"add":[[2,0]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edges: status %d: %s", resp.StatusCode, body)
	}
	var er EdgesResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Epoch != 1 || er.Edges != g.NumEdges()+1 || er.OverlayRows != 1 {
		t.Fatalf("edges response = %+v", er)
	}
	if er.Invalidated != 1 {
		t.Fatalf("invalidated %d rows, want 1 (the cached row for vertex 2)", er.Invalidated)
	}

	// The untouched component still serves from cache: no new backend run.
	if _, pr := postPredict(t, ts.URL, `{"ids":[7]}`); pr.CacheHits != 1 {
		t.Fatalf("vertex 7 after unrelated mutation: %d cache hits, want 1", pr.CacheHits)
	}
	if got := be.calls.Load(); got != warmRuns {
		t.Fatalf("unrelated cached vertex re-ran the backend (%d runs, warm %d)", got, warmRuns)
	}

	// The mutated vertex recomputes, and against the mutated view: 2 now
	// has out-edges {0, 3}, so its predictions must match the reference
	// over the live view.
	_, pr := postPredict(t, ts.URL, `{"ids":[2]}`)
	if pr.CacheHits != 0 {
		t.Fatalf("mutated vertex served stale cache (%d hits)", pr.CacheHits)
	}
	if got := be.calls.Load(); got != warmRuns+1 {
		t.Fatalf("mutated vertex ran backend %d times, want %d", got, warmRuns+1)
	}
	view, _ := s.current()
	full, err := core.ReferenceSnaple(view, s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := full[2]
	got := make([]core.Prediction, len(pr.Results[0].Predictions))
	for i, p := range pr.Results[0].Predictions {
		got[i] = core.Prediction{Vertex: graph.VertexID(p.ID), Score: p.Score}
	}
	if len(want) != 0 || len(got) != 0 {
		if !reflect.DeepEqual([]core.Prediction(want), got) {
			t.Fatalf("post-mutation row for 2 = %v, want %v", got, want)
		}
	}
}

// TestMutationMatchesReference holds a mutated server to the full-run
// oracle on a non-trivial graph: after a mixed add/remove batch, every
// served row must equal the reference predictions over the live view.
func TestMutationMatchesReference(t *testing.T) {
	g := testGraph(t, 200, 3)
	cfg := testConfig(t, 10)
	s, ts := newTestServer(t, Options{Graph: g, Mutable: true, Config: cfg})

	// Warm some of the queried rows so the batch mixes hits and misses.
	postPredict(t, ts.URL, `{"ids":[0,17,50]}`)

	drop := g.OutNeighbors(17)[0]
	body := fmt.Sprintf(`{"add":[[0,199],[17,42],[100,3]],"remove":[[17,%d]]}`, drop)
	if resp, b := postJSON(t, ts.URL+"/v1/edges", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("edges: status %d: %s", resp.StatusCode, b)
	}

	resp, pr := postPredict(t, ts.URL, `{"ids":[0,17,50,100,199]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d", resp.StatusCode)
	}
	view, _ := s.current()
	full, err := core.ReferenceSnaple(view, s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, vr := range pr.Results {
		want := full[vr.ID]
		got := make([]core.Prediction, len(vr.Predictions))
		for i, p := range vr.Predictions {
			got[i] = core.Prediction{Vertex: graph.VertexID(p.ID), Score: p.Score}
		}
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual([]core.Prediction(want), got) {
			t.Fatalf("vertex %d: got %v, want %v", vr.ID, got, want)
		}
	}
}

// TestCompactEndpoint pins the compaction lifecycle: POST /v1/compact folds
// the overlay into a fresh CSR (epoch bump, overlay drained), persists a
// loadable .sgr when configured, leaves the cache intact (the compacted
// view is bit-identical), and the persisted snapshot equals the live view.
func TestCompactEndpoint(t *testing.T) {
	g := testGraph(t, 120, 5)
	sgr := t.TempDir() + "/live.sgr"
	s, ts := newTestServer(t, Options{
		Graph: g, Mutable: true, CompactPath: sgr,
		Config: testConfig(t, 5),
	})

	if resp, b := postJSON(t, ts.URL+"/v1/edges", `{"add":[[1,100],[2,50]],"remove":[[1,100]]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("edges: status %d: %s", resp.StatusCode, b)
	}
	postPredict(t, ts.URL, `{"ids":[40]}`) // cache a row across the compaction

	resp, body := postJSON(t, ts.URL+"/v1/compact", ``)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: status %d: %s", resp.StatusCode, body)
	}
	var cr CompactResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Epoch != 2 || cr.Path != sgr {
		t.Fatalf("compact response = %+v", cr)
	}

	view, epoch := s.current()
	if epoch != 2 {
		t.Fatalf("serving epoch %d after compaction, want 2", epoch)
	}
	csr, ok := graph.AsCSR(view)
	if !ok {
		t.Fatal("post-compaction view still carries an overlay")
	}

	// The persisted snapshot is loadable and identical to the live CSR.
	f, err := os.Open(sgr)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := graph.ReadSnapshot(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumVertices() != csr.NumVertices() || loaded.NumEdges() != csr.NumEdges() {
		t.Fatalf("snapshot %v != live %v", loaded, csr)
	}
	if !reflect.DeepEqual(loaded.Edges(), csr.Edges()) {
		t.Fatal("persisted snapshot's edges differ from the live CSR")
	}

	// Compaction must not cost the cache: the pre-compaction row still hits.
	if _, pr := postPredict(t, ts.URL, `{"ids":[40]}`); pr.CacheHits != 1 {
		t.Fatalf("cached row lost across compaction (%d hits)", pr.CacheHits)
	}
}

// TestAutoCompact pins the background trigger: once the overlay reaches
// CompactAt dirty rows, a compaction runs without being asked.
func TestAutoCompact(t *testing.T) {
	g := testGraph(t, 80, 9)
	s, ts := newTestServer(t, Options{
		Graph: g, Mutable: true, CompactAt: 2,
		Config: testConfig(t, 5),
	})
	if resp, b := postJSON(t, ts.URL+"/v1/edges", `{"add":[[3,60],[4,61]]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("edges: status %d: %s", resp.StatusCode, b)
	}
	deadline := time.After(10 * time.Second)
	for {
		if view, _ := s.current(); view.(*graph.Delta).OverlayRows() == 0 {
			return
		}
		select {
		case <-deadline:
			t.Fatal("overlay not compacted within 10s of crossing CompactAt")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestEdgesRejects pins the mutation endpoint's validation.
func TestEdgesRejects(t *testing.T) {
	g := testGraph(t, 50, 1)
	_, frozen := newTestServer(t, Options{Graph: g, Config: testConfig(t, 5)})
	if resp, _ := postJSON(t, frozen.URL+"/v1/edges", `{"add":[[1,2]]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("frozen server accepted a mutation (status %d)", resp.StatusCode)
	}
	if resp, _ := postJSON(t, frozen.URL+"/v1/compact", ``); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("frozen server accepted a compaction (status %d)", resp.StatusCode)
	}

	_, ts := newTestServer(t, Options{Graph: g, Mutable: true, Config: testConfig(t, 5)})
	cases := []struct {
		name, body string
		status     int
	}{
		{"bad json", `{"add":`, http.StatusBadRequest},
		{"triple", `{"add":[[1,2,3]]}`, http.StatusBadRequest},
		{"single", `{"remove":[[1]]}`, http.StatusBadRequest},
		{"out of range", `{"add":[[1,50]]}`, http.StatusBadRequest},
		{"empty batch ok", `{}`, http.StatusOK},
		{"ok", `{"add":[[1,2]],"remove":[[1,2]]}`, http.StatusOK},
	}
	for _, c := range cases {
		if resp, _ := postJSON(t, ts.URL+"/v1/edges", c.body); resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/edges")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET edges: status %d", resp.StatusCode)
	}
}

// fleetLikeBackend fakes the one method the server uses to recognise a
// resident fleet.
type fleetLikeBackend struct{ engine.Local }

func (fleetLikeBackend) FleetInfo() engine.FleetInfo { return engine.FleetInfo{} }

// TestMutableRejects pins the mutable-mode constructor validation.
func TestMutableRejects(t *testing.T) {
	leakcheck.Check(t)
	g := testGraph(t, 20, 1)
	if _, err := New(Options{Graph: g, Mutable: true, Backend: fleetLikeBackend{}, Config: testConfig(t, 5)}); err == nil {
		t.Error("mutable server accepted a resident fleet backend")
	}
	absent := graph.Edge{Src: 1, Dst: 7}
search:
	for u := 0; u < g.NumVertices(); u++ {
		for v := 0; v < g.NumVertices(); v++ {
			if u != v && !g.HasEdge(graph.VertexID(u), graph.VertexID(v)) {
				absent = graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)}
				break search
			}
		}
	}
	dirty, err := graph.NewDelta(g).Apply([]graph.Edge{absent}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Graph: dirty, Mutable: true, Config: testConfig(t, 5)}); err == nil {
		t.Error("mutable server accepted a dirty overlay as base")
	}
	if s, err := New(Options{Graph: g.WithoutEdges(nil), Mutable: true, Config: testConfig(t, 5)}); err != nil {
		t.Errorf("mutable server rejected a clean overlay: %v", err)
	} else {
		s.Close()
	}
}

// TestLRUInvalidate pins both arms of the invalidation — delete by key when
// the dirty set is the smaller side, sweep the cache when it is not — to the
// same outcome: exactly the dirty vertices' rows go.
func TestLRUInvalidate(t *testing.T) {
	g, err := graph.FromEdges(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	// depth 0: the dirty set is exactly the batch's source endpoints.
	dirtySet := func(vs ...int) *core.VertexSet {
		var batch []graph.Edge
		for _, v := range vs {
			batch = append(batch, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + 1) % 16)})
		}
		return core.DirtySources(g, batch, nil, 0)
	}
	for _, tc := range []struct {
		name  string
		dirty *core.VertexSet
	}{
		{"by key", dirtySet(0, 2, 4, 9)},
		{"by sweep", dirtySet(0, 2, 4, 8, 9, 10, 11, 12, 13, 14)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newLRU(16)
			for v := 0; v < 6; v++ {
				c.put(graph.VertexID(v), nil)
			}
			if byKey := tc.dirty.Len() < c.len(); byKey != (tc.name == "by key") {
				t.Fatalf("dirty %d vs cache %d does not take the %s arm", tc.dirty.Len(), c.len(), tc.name)
			}
			n := c.invalidate(tc.dirty)
			if n != 3 || c.len() != 3 {
				t.Fatalf("invalidate dropped %d (len %d), want 3 (len 3)", n, c.len())
			}
			for v := 0; v < 6; v++ {
				_, ok := c.get(graph.VertexID(v))
				if want := v%2 == 1; ok != want {
					t.Errorf("vertex %d cached=%v, want %v", v, ok, want)
				}
			}
		})
	}
}

// TestConfigFingerprint ensures distinct scoring configs report distinct
// fingerprints on /v1/info.
func TestConfigFingerprint(t *testing.T) {
	base := testConfig(t, 5)
	mods := []func(*core.Config){
		func(c *core.Config) { c.K = 6 },
		func(c *core.Config) { c.KLocal = 5 },
		func(c *core.Config) { c.ThrGamma = 11 },
		func(c *core.Config) { c.Seed = 43 },
		func(c *core.Config) { c.Policy = core.SelectRnd },
		func(c *core.Config) { c.Score.Alpha = 0.5 },
		func(c *core.Config) { c.Score.Name = "geomSum" },
	}
	seen := map[uint64]int{configFingerprint(base): -1}
	for i, mod := range mods {
		cfg := base
		mod(&cfg)
		fp := configFingerprint(cfg)
		if prev, dup := seen[fp]; dup {
			t.Errorf("mod %d collides with %d", i, prev)
		}
		seen[fp] = i
	}
}

// TestServeClose ensures Close unblocks a request parked behind a run in
// flight with errShutdown instead of hanging it, and lets the run finish
// its own request.
func TestServeClose(t *testing.T) {
	leakcheck.Check(t)
	be := &gatedBackend{Backend: engine.Local{Workers: 1}, entered: make(chan struct{}, 1), release: make(chan struct{})}
	s, err := New(Options{Graph: testGraph(t, 50, 1), Backend: be, Config: testConfig(t, 5)})
	if err != nil {
		t.Fatal(err)
	}
	running, parked := make(chan error, 1), make(chan error, 1)
	go func() {
		_, _, err := s.predict([]graph.VertexID{1})
		running <- err
	}()
	<-be.entered // vertex 1's run is blocked in the backend
	go func() {
		_, _, err := s.predict([]graph.VertexID{2})
		parked <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); s.queued.Load() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("vertex 2's request never parked on the collector")
		}
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case err := <-parked:
		if !errors.Is(err, errShutdown) {
			t.Fatalf("parked request: err = %v, want %v", err, errShutdown)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked request hung after Close")
	}
	close(be.release)
	if err := <-running; err != nil {
		t.Fatalf("the run in flight at Close: %v", err)
	}
	<-closed
}

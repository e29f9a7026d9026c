package serve

import (
	"errors"
	"sort"
	"sync"
	"time"

	"snaple/internal/engine"
)

// latencyRingSize bounds the latency samples kept for the percentile
// report; old samples are overwritten in ring order.
const latencyRingSize = 4096

// qpsWindow is the sliding window the QPS figure is computed over.
const qpsWindow = 60 * time.Second

// serverStats aggregates the serving metrics behind /statsz. Counters are
// cumulative since start; latency percentiles and QPS are computed over the
// recent sample ring at read time.
type serverStats struct {
	mu sync.Mutex

	requests    int64 // /v1/predict requests answered (success or error)
	ids         int64 // vertices asked for, repeats included, summed over requests
	cacheHits   int64 // distinct ids answered from the LRU
	cacheMisses int64 // distinct ids that needed a frontier run
	batches     int64 // micro-batches assembled
	runs        int64 // backend Predict calls (batches with ≥1 uncached id)
	errors      int64 // requests that failed

	// Fleet health (dist backend only; zero elsewhere). The worker gauges
	// reflect the most recent run — the server's current view of the fleet —
	// while failovers/dialRetries/partitionsLost accumulate across runs.
	distRuns       int64 // runs that reported dist fleet stats
	replicas       int   // replica factor of the last dist run
	workersTotal   int   // fleet size of the last dist run
	workersDead    int   // workers declared dead during the last dist run
	failovers      int64 // cumulative mid-run primary promotions
	dialRetries    int64 // cumulative redialed connect/spawn attempts
	partitionsLost int64 // runs that failed with ErrPartitionLost
	degraded       bool  // last dist run lost a partition; cleared by a success

	// Live-graph counters (mutable servers only; zero elsewhere).
	mutations    int64  // /v1/edges batches applied
	edgesAdded   int64  // edges submitted for addition, summed over batches
	edgesRemoved int64  // edges submitted for removal, summed over batches
	invalidated  int64  // cached rows dropped by mutation frontiers
	compactions  int64  // overlay-to-CSR compactions completed
	compactErrs  int64  // compactions whose snapshot persistence failed
	epoch        uint64 // serving view's version after the last transition

	ring  [latencyRingSize]sample
	ringN int64 // total samples ever recorded; ring index = ringN % size
}

type sample struct {
	at time.Time
	ms float64
}

// observe records one answered request: ids vertices asked for, of which
// distinct were distinct and hits of those came from the cache.
func (s *serverStats) observe(lat time.Duration, ids, distinct, hits int, failed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	s.ids += int64(ids)
	s.cacheHits += int64(hits)
	s.cacheMisses += int64(distinct - hits)
	if failed {
		s.errors++
	}
	s.ring[s.ringN%latencyRingSize] = sample{at: time.Now(), ms: float64(lat.Microseconds()) / 1000}
	s.ringN++
}

// observeBatch records one assembled micro-batch and whether it ran the
// backend.
func (s *serverStats) observeBatch(ran bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches++
	if ran {
		s.runs++
	}
}

// observeRun records one backend run's fleet health. Only dist runs carry
// fleet stats (st.Replicas > 0); a partition-lost failure flips the server
// degraded — some partition has zero live replicas, so /healthz reports 503
// until a later run completes against a recovered fleet.
func (s *serverStats) observeRun(st engine.Stats, runErr error) {
	if st.Replicas == 0 && !errors.Is(runErr, engine.ErrPartitionLost) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.distRuns++
	s.replicas = st.Replicas
	s.workersTotal = st.Workers
	s.workersDead = st.WorkersDead
	s.failovers += int64(st.Failovers)
	s.dialRetries += int64(st.DialRetries)
	switch {
	case errors.Is(runErr, engine.ErrPartitionLost):
		s.partitionsLost++
		s.degraded = true
	case runErr == nil:
		s.degraded = false
	}
}

// observeMutation records one applied /v1/edges batch.
func (s *serverStats) observeMutation(added, removed, invalidated int, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mutations++
	s.edgesAdded += int64(added)
	s.edgesRemoved += int64(removed)
	s.invalidated += int64(invalidated)
	s.epoch = epoch
}

// observeCompaction records one completed overlay compaction.
func (s *serverStats) observeCompaction(epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compactions++
	if epoch > s.epoch {
		s.epoch = epoch
	}
}

// observeCompactError records a compaction whose snapshot write failed.
func (s *serverStats) observeCompactError() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compactErrs++
}

// isDegraded reports whether the last dist run lost a partition outright.
func (s *serverStats) isDegraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// Snapshot is the /statsz payload.
type Snapshot struct {
	// Engine names the backend as InfoResponse.Engine does ("local",
	// "fleet", "dist", …), so a latency figure reads with its mode.
	Engine       string  `json:"engine"`
	Requests     int64   `json:"requests"`
	IDs          int64   `json:"ids"`
	Errors       int64   `json:"errors"`
	QPS          float64 `json:"qps"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	Batches      int64   `json:"batches"`
	PredictRuns  int64   `json:"predict_runs"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	CacheSize    int     `json:"cache_size"`
	CacheCap     int     `json:"cache_capacity"`
	UptimeSec    float64 `json:"uptime_sec"`
	// Queued is a gauge: the requests whose misses wait for the collector,
	// which takes them all when the run in flight ends. It tells queueing
	// apart from run time in a latency tail.
	Queued int64 `json:"queued"`

	// Live-graph counters (all zero unless the server is mutable).
	Mutations        int64  `json:"mutations,omitempty"`
	EdgesAdded       int64  `json:"edges_added,omitempty"`
	EdgesRemoved     int64  `json:"edges_removed,omitempty"`
	Invalidated      int64  `json:"invalidated,omitempty"`
	Compactions      int64  `json:"compactions,omitempty"`
	CompactionErrors int64  `json:"compaction_errors,omitempty"`
	Epoch            uint64 `json:"epoch,omitempty"`

	// Fleet health (all zero unless the backend is dist).
	DistRuns       int64 `json:"dist_runs,omitempty"`
	Replicas       int   `json:"replicas,omitempty"`
	WorkersTotal   int   `json:"workers_total,omitempty"`
	WorkersLive    int   `json:"workers_live,omitempty"`
	WorkersDead    int   `json:"workers_dead,omitempty"`
	Failovers      int64 `json:"failovers,omitempty"`
	DialRetries    int64 `json:"dial_retries,omitempty"`
	PartitionsLost int64 `json:"partitions_lost,omitempty"`
	Degraded       bool  `json:"degraded,omitempty"`
}

// snapshot computes the report. Percentiles cover the ring's samples (the
// last latencyRingSize requests); QPS counts ring samples inside the last
// qpsWindow — when the ring wrapped within the window, the rate is
// extrapolated from the span the ring still covers.
func (s *serverStats) snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		Requests: s.requests, IDs: s.ids, Errors: s.errors,
		Batches: s.batches, PredictRuns: s.runs,
		CacheHits: s.cacheHits, CacheMisses: s.cacheMisses,
		Mutations: s.mutations, EdgesAdded: s.edgesAdded,
		EdgesRemoved: s.edgesRemoved, Invalidated: s.invalidated,
		Compactions: s.compactions, CompactionErrors: s.compactErrs,
		Epoch:    s.epoch,
		DistRuns: s.distRuns, Replicas: s.replicas,
		WorkersTotal: s.workersTotal, WorkersDead: s.workersDead,
		WorkersLive: s.workersTotal - s.workersDead,
		Failovers:   s.failovers, DialRetries: s.dialRetries,
		PartitionsLost: s.partitionsLost, Degraded: s.degraded,
	}
	if total := s.cacheHits + s.cacheMisses; total > 0 {
		snap.CacheHitRate = float64(s.cacheHits) / float64(total)
	}
	n := int(min(s.ringN, latencyRingSize))
	if n == 0 {
		return snap
	}
	lats := make([]float64, 0, n)
	now := time.Now()
	recent := 0
	var oldest time.Time
	for i := 0; i < n; i++ {
		smp := s.ring[i]
		lats = append(lats, smp.ms)
		if age := now.Sub(smp.at); age <= qpsWindow {
			recent++
			if oldest.IsZero() || smp.at.Before(oldest) {
				oldest = smp.at
			}
		}
	}
	sort.Float64s(lats)
	snap.P50Ms = percentile(lats, 0.50)
	snap.P99Ms = percentile(lats, 0.99)
	if recent > 0 {
		span := qpsWindow.Seconds()
		if s.ringN > latencyRingSize && recent == n { // ring wrapped inside the window
			span = now.Sub(oldest).Seconds()
		}
		if span > 0 {
			snap.QPS = float64(recent) / span
		}
	}
	return snap
}

// percentile returns the p-quantile of an ascending sample set
// (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"snaple/internal/core"
	"snaple/internal/graph"
	"snaple/internal/wire"
)

// This file is the failover equivalence suite: the coordinator-side fault
// hook (kill worker W at superstep S) and the wire-level chaos transport
// (internal/wire/chaos.go) drive worker deaths through every phase of a
// replicated run, and every surviving run must be bit-identical to the
// healthy one. The CI cluster-smoke job reruns the SIGKILL variant against
// real worker processes.

// withStepHook returns a context that makes the run under it call hook before
// each superstep attempt — the coordinator-side fault hook, which reaches
// distRun.predict under either coordinator.
func withStepHook(hook func(si int, r *distRun)) context.Context {
	return context.WithValue(context.Background(), stepHookKey{}, hook)
}

// chaosPool serves n in-process loopback workers whose FIRST session runs
// over a fault-injecting transport scripted by events(worker); later
// sessions are served clean, so a test can assert that a worker survives
// its faulted session and serves the next job. Unlike a real snaple-worker,
// each listener serves sessions sequentially.
func chaosPool(t *testing.T, n int, events func(worker int) []wire.ChaosEvent) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go func(w int, l net.Listener) {
			first := true
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				var rwc io.ReadWriteCloser = c
				if first && events != nil {
					if evs := events(w); len(evs) > 0 {
						rwc = wire.NewChaosTransport(c, evs)
					}
				}
				first = false
				_ = wire.ServeConnWith(rwc, wire.ServeOptions{})
			}
		}(i, l)
		addrs[i] = l.Addr().String()
	}
	return addrs
}

// TestDistChaosKillAtEachStep is the acceptance criterion of the failover
// design: with -replicas 2, killing any single worker at any superstep must
// yield results bit-identical to the healthy run. The kill hook closes the
// connection without telling the liveness tracker, so the death is
// discovered exactly the way a real crash is — by the step's exchange
// failing — and the coordinator must fail over and re-run the step on the
// survivor. Both a serving replica and a standby die here, at each of the
// three supersteps, under both coordinators: Dist
// shipping per run and a resident Fleet attaching by fingerprint share the
// superstep driver, so they share its failover.
func TestDistChaosKillAtEachStep(t *testing.T) {
	g := testGraph(t, 200, 7)
	const workers, replicas = 4, 2
	backends := []struct {
		name string
		open func(t *testing.T) ScopedBackend
	}{
		{"dist", func(t *testing.T) ScopedBackend {
			return Dist{Addrs: workerPool(t, workers), Seed: 42, Replicas: replicas, StepTimeout: 30 * time.Second}
		}},
		{"fleet", func(t *testing.T) ScopedBackend {
			f, err := OpenFleet(g, FleetOptions{InProc: workers / replicas, Replicas: replicas, Seed: 42, StepTimeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		}},
	}
	for _, c := range []struct {
		score string
		pol   core.SelectionPolicy
	}{
		{"linearSum", core.SelectMax},
		// A step re-run on the survivor must redraw the same seeded sample
		// and the same identity-aware similarities.
		{"PPR", core.SelectRnd},
	} {
		cfg := core.Config{Score: mustScore(t, c.score), K: 5, KLocal: 4, ThrGamma: 10, Policy: c.pol, Seed: 42}
		want, err := core.ReferenceSnaple(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, be := range backends {
			for kill := 0; kill < workers; kill++ {
				for at := range len(core.DistSteps()) {
					name := fmt.Sprintf("%s/%s/%s/kill=%d/step=%d", be.name, c.score, c.pol, kill, at)
					t.Run(name, func(t *testing.T) {
						ctx := withStepHook(func(si int, r *distRun) {
							if si == at {
								r.killWorker(kill)
							}
						})
						sp, st, err := be.open(t).PredictScoped(ctx, g, cfg)
						if err != nil {
							t.Fatal(err)
						}
						got := sp.Dense(g.NumVertices())
						if !reflect.DeepEqual(want, got) {
							diffPredictions(t, want, got)
						}
						if st.Replicas != replicas || st.Workers != workers {
							t.Errorf("stats = %+v, want %d workers at %d replicas", st, workers, replicas)
						}
						if st.WorkersDead != 1 {
							t.Errorf("WorkersDead = %d, want 1", st.WorkersDead)
						}
						// Killing a serving replica forces a promotion; killing a
						// standby only sheds redundancy.
						if st.Failovers > 1 {
							t.Errorf("Failovers = %d, want 0 or 1", st.Failovers)
						}
					})
				}
			}
		}
	}
}

// TestDistChaosCorruptFrame flips one bit inside a worker's partial stream:
// the frame CRC turns it into a connection-level error, the worker is
// declared dead, and the replicated run still matches the healthy one.
func TestDistChaosCorruptFrame(t *testing.T) {
	g := testGraph(t, 200, 7)
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 4, ThrGamma: 10, Seed: 42}
	want, err := core.ReferenceSnaple(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Offset 4096 of worker 1's write stream is well past its hello reply
	// and Ready (tens of bytes) — inside the first superstep's partials.
	addrs := chaosPool(t, 4, func(w int) []wire.ChaosEvent {
		if w != 1 {
			return nil
		}
		return []wire.ChaosEvent{{Dir: wire.ChaosWrites, Op: wire.ChaosCorrupt, At: 4096}}
	})
	got, st, err := Dist{Addrs: addrs, Seed: 42, Replicas: 2, StepTimeout: 5 * time.Second}.Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		diffPredictions(t, want, got)
	}
	if st.WorkersDead != 1 {
		t.Errorf("WorkersDead = %d, want 1", st.WorkersDead)
	}
}

// TestDistChaosBlackhole blackholes a worker's upstream mid-step: nothing
// errors, nothing closes — only the phase deadline can notice. The run must
// declare the worker dead at the deadline, fail over and finish with
// bit-identical results, promptly.
func TestDistChaosBlackhole(t *testing.T) {
	g := testGraph(t, 200, 7)
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 4, ThrGamma: 10, Seed: 42}
	want, err := core.ReferenceSnaple(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addrs := chaosPool(t, 4, func(w int) []wire.ChaosEvent {
		if w != 0 {
			return nil
		}
		return []wire.ChaosEvent{{Dir: wire.ChaosWrites, Op: wire.ChaosDrop, At: 1024}}
	})
	const deadline = 1 * time.Second
	start := time.Now()
	got, st, err := Dist{Addrs: addrs, Seed: 42, Replicas: 2, StepTimeout: deadline}.Predict(g, cfg)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		diffPredictions(t, want, got)
	}
	if st.WorkersDead != 1 {
		t.Errorf("WorkersDead = %d, want 1", st.WorkersDead)
	}
	// One eaten deadline plus the re-run and slack; far below a hang.
	if wall > 6*deadline {
		t.Errorf("run took %v with a %v phase deadline", wall, deadline)
	}
}

// TestDistChaosDelayIsNotDeath pins the false-positive side of failure
// detection: a stall well under the phase deadline is jitter, not a death —
// no worker may be declared dead and the results must match.
func TestDistChaosDelayIsNotDeath(t *testing.T) {
	g := testGraph(t, 200, 7)
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 4, ThrGamma: 10, Seed: 42}
	want, err := core.ReferenceSnaple(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addrs := chaosPool(t, 4, func(w int) []wire.ChaosEvent {
		if w != 2 {
			return nil
		}
		return []wire.ChaosEvent{{Dir: wire.ChaosWrites, Op: wire.ChaosDelay, At: 2048, Delay: 300 * time.Millisecond}}
	})
	got, st, err := Dist{Addrs: addrs, Seed: 42, Replicas: 2, StepTimeout: 30 * time.Second}.Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		diffPredictions(t, want, got)
	}
	if st.WorkersDead != 0 || st.Failovers != 0 {
		t.Errorf("stats = %+v, want no deaths", st)
	}
}

// TestDistPartitionLost pins the give-up path: when every replica of a
// partition is gone the run must fail with ErrPartitionLost within the
// phase deadline — never hang, never fabricate a result.
func TestDistPartitionLost(t *testing.T) {
	g := testGraph(t, 200, 7)
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 4, ThrGamma: 10, Seed: 42}
	cases := []struct {
		name     string
		workers  int
		replicas int
		kills    []int
	}{
		{"unreplicated", 2, 1, []int{0}},
		{"whole-group", 4, 2, []int{2, 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			addrs := workerPool(t, c.workers)
			const deadline = 2 * time.Second
			d := Dist{Addrs: addrs, Seed: 42, Replicas: c.replicas, StepTimeout: deadline}
			ctx := withStepHook(func(si int, r *distRun) {
				if si == 1 {
					for _, w := range c.kills {
						r.killWorker(w)
					}
				}
			})
			start := time.Now()
			_, st, err := d.PredictScoped(ctx, g, cfg)
			wall := time.Since(start)
			if !errors.Is(err, ErrPartitionLost) {
				t.Fatalf("err = %v, want ErrPartitionLost", err)
			}
			if wall > 2*deadline {
				t.Errorf("failed after %v, want within the %v phase deadline", wall, deadline)
			}
			if st.WorkersDead != len(c.kills) {
				t.Errorf("WorkersDead = %d, want %d", st.WorkersDead, len(c.kills))
			}
		})
	}
}

// TestDistCancelMidSuperstep pins the cancellation satellite: a context
// cancelled while a superstep is stalled must return promptly (well under
// 2× the phase deadline) with ctx's error, close every worker connection,
// leave the resident workers reusable for the next job, and leave no
// watcher or session goroutine behind.
func TestDistCancelMidSuperstep(t *testing.T) {
	checkGoroutines(t)
	g := testGraph(t, 200, 7)
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 4, ThrGamma: 10, Seed: 42}
	// Worker 0 stalls for 1s inside its first partial stream — long enough
	// that the cancel always lands mid-superstep.
	addrs := chaosPool(t, 2, func(w int) []wire.ChaosEvent {
		if w != 0 {
			return nil
		}
		return []wire.ChaosEvent{{Dir: wire.ChaosWrites, Op: wire.ChaosDelay, At: 1024, Delay: time.Second}}
	})
	const deadline = 5 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := Dist{Addrs: addrs, Seed: 42, StepTimeout: deadline}.PredictScoped(ctx, g, cfg)
	wall := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if wall >= 2*deadline {
		t.Errorf("cancel returned after %v, want < %v", wall, 2*deadline)
	}

	// The workers saw their sessions die, not their processes: the same
	// fleet must serve the next (healthy) job. The pool serves sessions
	// sequentially, so this also waits out worker 0's stalled first session
	// ending.
	want, err := core.ReferenceSnaple(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Dist{Addrs: addrs, Seed: 42, StepTimeout: deadline}.Predict(g, cfg)
	if err != nil {
		t.Fatalf("rerun on the same workers: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		diffPredictions(t, want, got)
	}
}

// TestFleetScopedCancelMidSuperstep is the cancellation pin of the sparse
// entry point on a standing fleet: PredictScoped under a context cancelled
// mid-superstep returns ctx's error promptly, the next query redials the
// swept connection and answers Serial's rows, and closing the fleet leaves
// no goroutine behind.
func TestFleetScopedCancelMidSuperstep(t *testing.T) {
	checkGoroutines(t)
	g := testGraph(t, 200, 7)
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 4, ThrGamma: 10, Seed: 42,
		Sources: []graph.VertexID{50, 3, 101}}
	// Worker 0's standing session — the fleet's first — stalls 1s inside the
	// first query's partial stream.
	addrs := chaosPool(t, 2, func(w int) []wire.ChaosEvent {
		if w != 0 {
			return nil
		}
		return []wire.ChaosEvent{{Dir: wire.ChaosWrites, Op: wire.ChaosDelay, At: 1024, Delay: time.Second}}
	})
	const deadline = 5 * time.Second
	f, err := OpenFleet(g, FleetOptions{Addrs: addrs, Seed: 42, StepTimeout: deadline})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err = f.PredictScoped(ctx, g, cfg)
	if wall := time.Since(start); !errors.Is(err, context.Canceled) || wall >= 2*deadline {
		t.Fatalf("err = %v after %v, want context.Canceled well within %v", err, wall, 2*deadline)
	}

	full, err := core.ReferenceSnaple(g, core.Config{Score: cfg.Score, K: 5, KLocal: 4, ThrGamma: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := f.PredictScoped(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("query after the cancel: %v", err)
	}
	for i, v := range got.Vertices {
		if !reflect.DeepEqual(got.Rows[i], full[v]) {
			t.Fatalf("vertex %d: %v, want %v", v, got.Rows[i], full[v])
		}
	}
}

package engine

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"slices"
	"strings"
	"time"

	"snaple/internal/core"
	"snaple/internal/graph"
	"snaple/internal/partition"
	"snaple/internal/wire"
)

// Dist runs Algorithm 2 across real worker processes connected over TCP —
// the scale-out half of the paper, with an actual network where the sim
// backend has a cost model. It is the one-shot form of Fleet, configured by
// the same options: every Predict opens a fleet on the view it is handed
// (vertex-cut, connect, ship to workers that hold no packed shard), runs the
// one prediction and closes it, so it accepts any graph.View and never goes
// stale. Callers with more than one query open the Fleet themselves and pay
// for the cut and the shipping once. Results are bit-identical to Serial,
// Local and Sim for any worker count; Stats.CrossBytes and Stats.CrossMsgs
// are measured on the wire, not simulated.
type Dist FleetOptions

// routeChunkBytes is the coordinator's flush threshold while routing
// records: the same fixed chunk size workers stream partials up in.
const routeChunkBytes = 64 << 10

// shipTimeout bounds each ship/ready and attach/ready handshake per worker.
// Generous — a big subgraph legitimately takes a while to encode and load —
// but finite: a wedged worker, or a stranger that accepted the connection,
// may never answer at all, and that must surface as an error, not a hang.
const shipTimeout = 2 * time.Minute

// Name implements Backend.
func (Dist) Name() string { return "dist" }

// Predict implements Backend.
func (d Dist) Predict(g graph.View, cfg core.Config) (core.Predictions, Stats, error) {
	return dense(d, g, cfg)
}

// PredictScoped implements ScopedBackend: it opens a fleet on g, runs the
// one query and closes the fleet. Cancelling ctx closes every worker
// connection, so whatever exchange is in flight fails promptly and the call
// returns ctx.Err() — the workers see their session end and stay reusable
// for the next job. The config is validated before any worker is dialed.
func (d Dist) PredictScoped(ctx context.Context, g graph.View, cfg core.Config) (core.ScopedPredictions, Stats, error) {
	q, err := newQuery(g, cfg)
	if err != nil {
		return core.ScopedPredictions{}, Stats{Engine: "dist"}, err
	}
	f, err := OpenFleet(g, FleetOptions(d))
	if err != nil {
		return core.ScopedPredictions{}, Stats{Engine: "dist"}, fmt.Errorf("engine: dist: %w", err)
	}
	defer f.Close()
	preds, st, err := f.run(ctx, q)
	st.Engine = "dist"
	st.DialRetries = f.Stats().DialRetries // the open's dials are this run's
	return q.result(preds, st, err)
}

// deployment is the vertex cut a fleet stands on — partition.NewCut's
// shards, stamped with the fleet's identity: the same values a pack writes, a
// ship carries and a worker holds — plus the one index the query router
// reads that the cut lacks: which shards hold each vertex's out-edges.
type deployment struct {
	*partition.Cut
	fingerprint uint64  // FleetFingerprint of (g, cut), stamped into every shard
	srcStart    []int   // v's source shards are srcShards[srcStart[v]:srcStart[v+1]]
	srcShards   []int32 // per vertex, the shards holding its out-edges, ascending
}

// cut vertex-cuts g into shards partitions: strat's placement, NewCut's
// shards and masters, and the fleet fingerprint stamped into every shard.
func cut(g graph.View, strat partition.Strategy, seed uint64, shards int) (*deployment, error) {
	assign, err := strat.Partition(g, shards)
	if err != nil {
		return nil, err
	}
	c, err := partition.NewCut(g, assign, seed)
	if err != nil {
		return nil, err
	}
	dep := &deployment{Cut: c, fingerprint: FleetFingerprint(g, shards, strat.Name(), seed)}
	for _, sf := range c.Shards {
		sf.Fingerprint = dep.fingerprint
	}

	// Source shards by count, prefix and fill. A shard's source runs ascend,
	// one per vertex with out-edges there, and the shards are walked in
	// order, so every row ascends.
	eachSource := func(fn func(p int32, v graph.VertexID)) {
		for p, sf := range c.Shards {
			for i, si := range sf.EdgeSrc {
				if i == 0 || si != sf.EdgeSrc[i-1] {
					fn(int32(p), sf.Locals[si])
				}
			}
		}
	}
	n := g.NumVertices()
	dep.srcStart = make([]int, n+1)
	eachSource(func(_ int32, v graph.VertexID) { dep.srcStart[v+1]++ })
	for v := range n {
		dep.srcStart[v+1] += dep.srcStart[v]
	}
	dep.srcShards = make([]int32, dep.srcStart[n])
	fill := slices.Clone(dep.srcStart[:n])
	eachSource(func(p int32, v graph.VertexID) {
		dep.srcShards[fill[v]] = p
		fill[v]++
	})
	return dep, nil
}

// sources returns the shards holding u's out-edges, ascending.
func (d *deployment) sources(u graph.VertexID) []int32 {
	return d.srcShards[d.srcStart[u]:d.srcStart[u+1]]
}

// retryableDial reports whether a connect failure is worth another attempt:
// network-layer trouble (timeouts, refusals, resets) and torn connections
// are transient; a deliberate or deterministic rejection — a typed error
// frame, wire.ErrProtocolMismatch — never is.
func retryableDial(err error) bool {
	if wire.IsRemoteError(err) {
		return false
	}
	var ne net.Error
	return errors.As(err, &ne) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// dialBackoff is the first pause between connection attempts, doubled after
// each failed one.
const dialBackoff = 150 * time.Millisecond

// withRetry runs attempt up to DialAttempts times (0 = 3) with exponential
// backoff from dialBackoff and jitter between tries (the jitter keeps a
// fleet-wide reconnect from stampeding one worker). always retries every
// failure — for spawn, where each attempt forks a fresh process and any
// failure is worth a retry; otherwise only retryableDial failures are
// retried. Returns how many retries ran and the final error.
func (o FleetOptions) withRetry(always bool, attempt func() error) (retries int, err error) {
	attempts, backoff := o.DialAttempts, dialBackoff
	if attempts <= 0 {
		attempts = 3
	}
	for i := 0; ; i++ {
		err = attempt()
		if err == nil || i+1 >= attempts || (!always && !retryableDial(err)) {
			return retries, err
		}
		retries++
		sleep := backoff
		if j := backoff / 2; j > 0 {
			sleep += rand.N(j)
		}
		time.Sleep(sleep)
		backoff *= 2
	}
}

// spawnWorker forks one snaple-worker on an ephemeral loopback port and
// parses the address it announces on stdout ("listening <addr>"). The
// worker's stderr passes through, so a crashed worker leaves its diagnostics
// next to the coordinator's EOF error.
func spawnWorker(bin string) (addr string, stop func(), err error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, err
	}
	if err := cmd.Start(); err != nil {
		return "", nil, fmt.Errorf("spawn %s: %w", bin, err)
	}
	stop = func() {
		// Kill first so the stdout scanner (below) hits EOF, then cmd.Wait —
		// not Process.Wait — to release the StdoutPipe.
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	select {
	case line, ok := <-lines:
		fields := strings.Fields(line)
		if !ok || len(fields) != 2 || fields[0] != "listening" {
			stop()
			return "", nil, fmt.Errorf("spawn %s: unexpected announcement %q", bin, line)
		}
		return fields[1], stop, nil
	case <-time.After(10 * time.Second):
		stop()
		return "", nil, fmt.Errorf("spawn %s: worker never announced its address", bin)
	}
}

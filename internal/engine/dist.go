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

// deployment is the vertex cut a fleet stands on, stamped with the fleet's
// identity. Its shards — the same values a pack writes, a ship carries and a
// worker holds — are built only for a pack, a fleet that ships them and an
// in-process fleet; a coordinator of resident workers builds only the
// placement it routes by (partition.Place).
type deployment struct {
	*partition.Cut
	fingerprint uint64 // FleetFingerprint of (g, cut), stamped into every shard
}

// cut vertex-cuts g into shards partitions: strat's assignment and the
// placement with its masters, plus the shards when columns is set, each
// stamped with the fleet fingerprint. The fingerprint, another pass over g's
// edges, is hashed on its own goroutine beside the cut and joined on every
// path.
func cut(g graph.View, strat partition.Strategy, seed uint64, shards int, columns bool) (*deployment, error) {
	fp := make(chan uint64, 1)
	go func() { fp <- FleetFingerprint(g, shards, strat.Name(), seed) }()
	build := partition.Place
	if columns {
		build = partition.NewCut
	}
	var c *partition.Cut
	assign, err := strat.Partition(g, shards)
	if err == nil {
		c, err = build(g, assign, seed)
	}
	dep := &deployment{Cut: c, fingerprint: <-fp}
	if err != nil {
		return nil, err
	}
	for _, sf := range c.Shards {
		sf.Fingerprint = dep.fingerprint
	}
	return dep, nil
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

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
	"sort"
	"strings"
	"time"

	"snaple/internal/core"
	"snaple/internal/graph"
	"snaple/internal/partition"
	"snaple/internal/randx"
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
// but finite: a worker that is busy with another coordinator's session will
// never answer at all, and that must surface as an error, not a hang.
const shipTimeout = 2 * time.Minute

// Name implements Backend.
func (Dist) Name() string { return "dist" }

// Predict implements Backend.
func (d Dist) Predict(g graph.View, cfg core.Config) (core.Predictions, Stats, error) {
	return d.PredictCtx(context.Background(), g, cfg)
}

// PredictCtx implements ContextBackend: Predict under a context. Cancelling
// ctx closes every worker connection, so whatever exchange is in flight
// fails promptly and the call returns ctx.Err() — the workers see their
// session end and stay reusable for the next job. The config is validated
// before any worker is dialed.
func (d Dist) PredictCtx(ctx context.Context, g graph.View, cfg core.Config) (core.Predictions, Stats, error) {
	q, err := newQuery(g, cfg)
	if err != nil {
		return nil, Stats{Engine: "dist"}, err
	}
	f, err := OpenFleet(g, FleetOptions(d))
	if err != nil {
		return nil, Stats{Engine: "dist"}, fmt.Errorf("engine: dist: %w", err)
	}
	defer f.Close()
	pred, st, err := f.run(ctx, q)
	st.Engine = "dist"
	st.DialRetries = f.Stats().DialRetries // the open's dials are this run's
	return pred, st, err
}

// deployment is the vertex cut a fleet stands on: the shards themselves —
// complete graph.ShardFiles, fleet identity and full-run roles included, the
// same values a pack writes, a ship carries and a worker holds — plus the
// per-vertex index the query router reads: which shard masters each vertex,
// which mirror it, and which hold its out-edges.
type deployment struct {
	fingerprint uint64 // FleetFingerprint of (g, cut), stamped into every shard
	parts       []*graph.ShardFile
	masterPart  []int32   // per vertex; -1 when the vertex has no edges
	mirrors     [][]int32 // per vertex: host shards excluding the master
	hosts       [][]int32 // per vertex: all host shards, ascending
	srcShards   [][]int32 // per vertex: shards holding its out-edges, ascending
	replicas    int       // total replica count
	present     int       // vertices with at least one replica
}

// cut vertex-cuts g into shards partitions and elects masters the same
// deterministic way gas.Distribute does. (Placement never changes results,
// only where each apply runs.) Edges keep the view's (src, dst) order within
// each shard, so every shard satisfies graph.ShardFile.Validate by
// construction — sorted Locals, non-decreasing EdgeSrc.
func cut(g graph.View, strat partition.Strategy, seed uint64, shards int) (*deployment, error) {
	assign, err := strat.Partition(g, shards)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	dep := &deployment{
		fingerprint: FleetFingerprint(g, shards, strat.Name(), seed),
		parts:       make([]*graph.ShardFile, shards),
		srcShards:   make([][]int32, n),
	}

	type rawEdge struct{ u, v graph.VertexID }
	rawEdges := make([][]rawEdge, shards)
	{
		sizes := make([]int, shards)
		for _, p := range assign.EdgeTo {
			sizes[p]++
		}
		for p := range rawEdges {
			rawEdges[p] = make([]rawEdge, 0, sizes[p])
		}
		i := 0
		g.ForEachEdge(func(u, v graph.VertexID) {
			p := assign.EdgeTo[i]
			i++
			rawEdges[p] = append(rawEdges[p], rawEdge{u, v})
			if !slices.Contains(dep.srcShards[u], p) {
				dep.srcShards[u] = append(dep.srcShards[u], p)
			}
		})
		for _, row := range dep.srcShards {
			slices.Sort(row)
		}
	}

	// lidx maps a vertex to its index+1 in the partition being built (0 = not
	// local to it): one array shared by every partition, reset after each.
	lidx := make([]int32, n)
	for p := 0; p < shards; p++ {
		locals := []graph.VertexID{} // non-nil even when empty, as a decoded shard's is
		for _, e := range rawEdges[p] {
			for _, v := range [2]graph.VertexID{e.u, e.v} {
				if lidx[v] == 0 {
					lidx[v] = 1
					locals = append(locals, v)
				}
			}
		}
		slices.Sort(locals)
		deg := make([]int32, len(locals))
		for i, v := range locals {
			lidx[v] = int32(i) + 1
			deg[i] = int32(g.OutDegree(v))
		}
		edgeSrc := make([]int32, len(rawEdges[p]))
		edgeDst := make([]int32, len(rawEdges[p]))
		for i, e := range rawEdges[p] {
			edgeSrc[i] = lidx[e.u] - 1
			edgeDst[i] = lidx[e.v] - 1
		}
		for _, v := range locals {
			lidx[v] = 0
		}
		rawEdges[p] = nil // the columns replace it; keeps the cut's peak heap down
		dep.parts[p] = &graph.ShardFile{
			Fingerprint: dep.fingerprint, Shard: p, Shards: shards, NumVertices: n,
			Locals: locals, Deg: deg,
			EdgeSrc: edgeSrc, EdgeDst: edgeDst,
			IsMaster:  make([]bool, len(locals)),
			HasRemote: make([]bool, len(locals)),
		}
	}

	// Master election among each vertex's hosts, in ascending shard order —
	// the same deterministic draw gas.Distribute uses.
	type vp struct {
		v graph.VertexID
		p int32
	}
	var pairs []vp
	for p := 0; p < shards; p++ {
		for _, v := range dep.parts[p].Locals {
			pairs = append(pairs, vp{v, int32(p)})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].v != pairs[j].v {
			return pairs[i].v < pairs[j].v
		}
		return pairs[i].p < pairs[j].p
	})
	hostStore := make([]int32, len(pairs)) // every hosts row, back to back
	for i := range pairs {
		hostStore[i] = pairs[i].p
	}
	dep.masterPart = make([]int32, n)
	dep.mirrors = make([][]int32, n)
	dep.hosts = make([][]int32, n)
	for v := range dep.masterPart {
		dep.masterPart[v] = -1
	}
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j].v == pairs[i].v {
			j++
		}
		v := pairs[i].v
		hosts := hostStore[i:j:j]
		mp := hosts[randx.Uint64n(uint64(len(hosts)), seed, uint64(v), 0xA5)]
		dep.hosts[v] = hosts
		dep.masterPart[v] = mp
		mi, _ := slices.BinarySearch(dep.parts[mp].Locals, v)
		dep.parts[mp].IsMaster[mi] = true
		dep.parts[mp].HasRemote[mi] = len(hosts) > 1
		if len(hosts) > 1 {
			mirrors := make([]int32, 0, len(hosts)-1)
			for _, p := range hosts {
				if p != mp {
					mirrors = append(mirrors, p)
				}
			}
			dep.mirrors[v] = mirrors
		}
		dep.replicas += len(hosts)
		dep.present++
		i = j
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

// withRetry runs attempt up to DialAttempts times (0 = 3) with exponential
// backoff from DialBackoff (0 = 150ms) and jitter between tries (the jitter
// keeps a fleet-wide reconnect from stampeding one worker). always retries
// every failure — for spawn, where each attempt forks a fresh process and any
// failure is worth a retry; otherwise only retryableDial failures are
// retried. Returns how many retries ran and the final error.
func (o FleetOptions) withRetry(always bool, attempt func() error) (retries int, err error) {
	attempts, backoff := o.DialAttempts, o.DialBackoff
	if attempts <= 0 {
		attempts = 3
	}
	if backoff <= 0 {
		backoff = 150 * time.Millisecond
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

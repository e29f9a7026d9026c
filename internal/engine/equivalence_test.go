package engine

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snaple/internal/cluster"
	"snaple/internal/core"
	"snaple/internal/graph"
	"snaple/internal/leakcheck"
	"snaple/internal/partition"
	"snaple/internal/randx"
	"snaple/internal/wire"
)

// TestBackendEquivalence holds every backend bit-identical to one oracle —
// core.ReferenceSnaple, or core.ReferenceBaseline for BASELINE — over the heap
// CSR the view must equal (built from edge lists, never read through the view
// under test), filtered to the sources, with Stats that keep eqCheckStats'
// invariants. eqGenerate covers graph × storage × backend × system × config ×
// scope × entry point × fault so that every axis value and every combination
// eqRequired names runs, which the inventory asserts. A failure is shrunk one
// axis at a time toward each axis's first, simplest value. The dist- rows
// share one worker pool, which SNAPLE_WORKER_ADDRS points at external workers;
// a fault row (named fault-<value>-...) runs on fresh workers of its own,
// where a worker of the queried shard faults its first session, and must end
// in its fault's one outcome (see checkFault).
func TestBackendEquivalence(t *testing.T) {
	cases, err := eqGenerate()
	if err != nil {
		t.Fatal(err)
	}
	h := &eqHarness{top: t, dir: t.TempDir(), pool: workerPool(t, 6), views: map[[2]int]eqView{},
		oracles: map[[5]int]core.Predictions{}, fleets: map[[3]int]*Fleet{}, cuts: map[[3]int]error{}}
	ran := 0
	for _, c := range cases {
		t.Run(c.String(), func(t *testing.T) {
			ran++
			if err := h.check(t, c); err != nil {
				s := h.shrink(t, c)
				t.Fatalf("%s: %v\nshrunk to %s: %v", c, err, s, h.check(t, s))
			}
		})
	}
	if ran < len(cases) {
		t.Logf("-run ran %d of %d cases: inventory not asserted", ran, len(cases))
		return
	}
	required := eqRequired()
	for _, item := range required {
		if !slices.ContainsFunc(cases, func(c eqCase) bool { return eqHas(c.features(), item) }) {
			t.Errorf("inventory: no case ran %s", strings.Join(item, " with "))
		}
	}
	if f := h.forms; f.rank == 0 || f.identity == 0 || f.lists == 0 {
		t.Errorf("closures by form = %+v, want rank- and identity-indexed arenas and list-only sets", f)
	}
	t.Logf("%d cases cover %d required axis values and combinations", len(cases), len(required))
}

// The axes, in the order the generator fills them.
const (
	axSystem = iota
	axBackend
	axStorage
	axScope
	axGraph
	axEntry
	axScore
	axPoint
	axFault // last: the generator fills it only for the fault items, which come after every other item
	eqAxes
)

// eqCase picks each axis's value by index; -1 marks an axis not yet filled.
type eqCase [eqAxes]int

var eqSystems = []string{"snaple", "baseline"}

const eqBaseline = 1

// eqGraph is a graph-axis value whose vertices [0, core) carry the edges; a
// padded graph adds isolated ones after them (see padGraph).
type eqGraph struct {
	name     string
	core     int
	isolated int // an edgeless vertex (past the core on a padded graph), or -1
	build    func(t testing.TB) *graph.Digraph
}

func eqTestGraph(n int, seed uint64) eqGraph {
	return eqGraph{fmt.Sprintf("test%d-s%d", n, seed), n, -1, func(t testing.TB) *graph.Digraph { return testGraph(t, n, seed) }}
}

func eqPadded(g eqGraph, per int) eqGraph {
	n := g.core * per
	return eqGraph{fmt.Sprintf("%s-pad%d", g.name, per), g.core, n - 1, func(t testing.TB) *graph.Digraph { return padGraph(t, g.build(t), n) }}
}

var eqGraphs = func() []eqGraph {
	gs := []eqGraph{
		{"path5", 5, 4, func(testing.TB) *graph.Digraph {
			return graph.MustFromEdges(5, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
		}},
		eqTestGraph(40, 5), // fewer vertices than local-w64 has workers
		{"er120", 120, -1, func(t testing.TB) *graph.Digraph { return erdosRenyi(t, 120, 1000, 10) }},
		eqTestGraph(150, 11), eqTestGraph(200, 3), eqTestGraph(200, 7), eqTestGraph(250, 11), eqTestGraph(300, 7),
		eqTestGraph(chunkVerts*2+37, 13), // past chunkVerts, with a final partial chunk
		eqPadded(eqTestGraph(250, 13), sparsePad), eqPadded(eqTestGraph(300, 7), sparsePad), eqPadded(eqTestGraph(300, 7), listPad),
	}
	for _, c := range [][2]int{{400, 21}, {300, 1}, {300, 2}, {300, 3}, {300, 4}, {300, 5}, {300, 6},
		{800, 1}, {800, 2}, {800, 3}, {800, 4}, {800, 5}, {800, 6}} {
		gs = append(gs, eqGraph{fmt.Sprintf("community%d-s%d", c[0], c[1]), c[0], -1,
			func(t testing.TB) *graph.Digraph { return communityGraph(t, c[0], uint64(c[1])) }})
	}
	return gs
}()

var eqStorages = []string{"heap", "mapped", "packed", "delta", "mutated", "compacted"}

const eqMutated = 4 // the storages from eqStorages[eqMutated] on hold mutationBatches' graph

var eqScopes = []string{"full", "single", "hub", "duplicates", "random25", "all", "isolated", "six-storage", "six-live"}

// eqScopeSources returns scope's sources on gr (nil: full) and if gr has them.
func eqScopeSources(scope string, gr eqGraph) ([]graph.VertexID, bool) {
	var s []graph.VertexID
	switch scope {
	case "full":
		return nil, true
	case "isolated":
		return []graph.VertexID{graph.VertexID(gr.isolated)}, gr.isolated >= 0
	case "random25":
		for i := range 25 {
			s = append(s, graph.VertexID(randx.Uint64n(uint64(gr.core), 99, uint64(i), 0)))
		}
	case "all":
		for v := range gr.core {
			s = append(s, graph.VertexID(v))
		}
	default:
		s = map[string][]graph.VertexID{"single": {17}, "hub": {50}, "duplicates": {7, 7, 7, 200},
			"six-storage": {0, 3, 50, 51, 120, 249}, // past the arena rule on a padded graph; 0 and 50 are hubs
			"six-live":    {0, 3, 7, 50, 120, 249}}[scope]
	}
	return s, int(slices.Max(s)) < gr.core
}

// eqFits[s][g] reports whether graph g has scope s's sources.
var eqFits = func() (fits [][]bool) {
	for _, scope := range eqScopes {
		fits = append(fits, nil)
		for _, gr := range eqGraphs {
			_, ok := eqScopeSources(scope, gr)
			fits[len(fits)-1] = append(fits[len(fits)-1], ok)
		}
	}
	return fits
}()

// eqBackend is a backend-axis value: be when stateless; otherwise a one-shot
// Dist over opts and the first pool workers of the shared pool (0: in
// process), or a standing Fleet over opts (from packed shards when
// resident). workers and replicas are what a full run must report.
type eqBackend struct {
	name, kind        string
	tags              []string // the values required combinations name
	be                Backend
	opts              FleetOptions
	pool              int
	resident          bool
	workers, replicas int
}

func eqLocal(w int) eqBackend {
	return eqBackend{name: fmt.Sprintf("local-w%d", w), kind: "local", be: Local{Workers: w}, workers: w}
}

func eqStrategy(s partition.Strategy) string {
	if s == nil {
		return "hash-edge"
	}
	return s.Name()
}

func eqSim(s Sim) eqBackend {
	spec, strat := cmp.Or(s.Spec.Name, "type-II"), eqStrategy(s.Strategy)
	return eqBackend{name: fmt.Sprintf("sim-n%d-%s-p%d-%s-w%d", s.Nodes, spec, s.Partitions, strat, s.Workers), kind: "sim", be: s,
		tags: []string{"strategy=" + strat, fmt.Sprintf("parts=%d", s.Partitions), fmt.Sprintf("hostw=%d", s.Workers)}}
}

func eqDist(name string, pool int, o FleetOptions, workers, replicas int) eqBackend {
	tags := []string{"strategy=" + eqStrategy(o.Strategy), eqReplicas(replicas)}
	if pool > 0 {
		tags = append(tags, "wire=dist") // a one-shot Dist on pool workers: fault rows run here
	}
	return eqBackend{name: name, kind: "dist", tags: tags, opts: o, pool: pool, workers: workers, replicas: replicas}
}

func eqReplicas(r int) string {
	if r == 1 {
		return "R=1"
	}
	return "R=2+"
}

var eqBackends = []eqBackend{
	{name: "serial", kind: "serial", be: Serial{}, workers: 1},
	eqLocal(1), eqLocal(3), eqLocal(8), eqLocal(0), eqLocal(4), eqLocal(64),
	eqSim(Sim{Nodes: 3, Seed: 9}), eqSim(Sim{Nodes: 2, Seed: 9}), eqSim(Sim{Partitions: 3, Seed: 9}),
	eqSim(typeISim(1, 3, 37)), eqSim(typeISim(4, 3, 37)), eqSim(typeISim(7, 3, 37)),
	eqSim(Sim{Nodes: 2, Partitions: 1, Strategy: partition.HashEdge{Seed: 31}, Workers: 1}),
	eqSim(Sim{Nodes: 2, Partitions: 3, Strategy: partition.HashEdge{Seed: 33}, Workers: 4}),
	eqSim(Sim{Nodes: 2, Partitions: 8, Strategy: partition.Greedy{}, Workers: 1}),
	eqSim(Sim{Nodes: 2, Partitions: 8, Strategy: partition.HashEdge{Seed: 8}, Workers: 4}),
	eqSim(Sim{Nodes: 2, Spec: cluster.TypeI(), Partitions: 2, Strategy: partition.HashSource{Seed: 34}, Workers: 4}),
	eqSim(Sim{Nodes: 2, Spec: cluster.TypeI(), Partitions: 5, Strategy: partition.Greedy{}, Workers: 1}),
	eqSim(Sim{Nodes: 2, Spec: cluster.TypeI(), Partitions: 5, Strategy: partition.HashEdge{Seed: 9}, Workers: 4}),
	eqDist("dist-inproc1", 0, FleetOptions{InProc: 1, Seed: 35}, 1, 1),
	eqDist("dist-inproc2", 0, FleetOptions{InProc: 2, Seed: 42}, 2, 1),
	eqDist("dist-inproc3", 0, FleetOptions{InProc: 3, Seed: 35}, 3, 1),
	eqDist("dist-w1", 1, FleetOptions{Seed: 9}, 1, 1),
	eqDist("dist-w2", 2, FleetOptions{Seed: 9}, 2, 1),
	eqDist("dist-w4", 4, FleetOptions{Seed: 9}, 4, 1),
	eqDist("dist-hash-edge", 3, FleetOptions{Strategy: partition.HashEdge{Seed: 9}, Seed: 9}, 3, 1),
	eqDist("dist-hash-source", 3, FleetOptions{Strategy: partition.HashSource{Seed: 9}, Seed: 9}, 3, 1),
	eqDist("dist-greedy", 3, FleetOptions{Strategy: partition.Greedy{}, Seed: 9}, 3, 1),
	// W workers in groups of R, one left unused (4 of 3), R clamped (2 of 5).
	eqDist("dist-r4x2", 4, FleetOptions{Replicas: 2, Seed: 42}, 4, 2),
	eqDist("dist-r6x3", 6, FleetOptions{Replicas: 3, Seed: 42}, 6, 3),
	eqDist("dist-r4x3", 4, FleetOptions{Replicas: 3, Seed: 42}, 3, 3),
	eqDist("dist-r2x5", 2, FleetOptions{Replicas: 5, Seed: 42}, 2, 2),
	eqDist("dist-zip", 0, FleetOptions{InProc: 3, Seed: 42, Compress: true}, 3, 1),
	{name: "fleet-resident-3x2", kind: "fleet", tags: []string{"wire=resident", "R=2+"}, opts: FleetOptions{Replicas: 2}, resident: true, workers: 6, replicas: 2},
	eqFleet(1, 1), eqFleet(2, 1), eqFleet(4, 1), eqFleet(3, 2),
}

func eqFleet(shards, replicas int) eqBackend {
	return eqBackend{name: fmt.Sprintf("fleet-%dx%d", shards, replicas), kind: "fleet", tags: []string{"wire=fleet", eqReplicas(replicas)},
		opts: FleetOptions{InProc: shards, Replicas: replicas, Seed: 9}, workers: shards * replicas, replicas: replicas}
}

var eqEntries = []string{"Predict", "PredictScoped"}

// eqPoint is a config-axis value: Algorithm 2's sampling parameters.
type eqPoint struct {
	policy      core.SelectionPolicy
	thr, klocal int
	seed        uint64
	k           int
}

func (p eqPoint) triple() string { return fmt.Sprintf("%v-thr%d-kl%d", p.policy, p.thr, p.klocal) }

func (p eqPoint) String() string { return fmt.Sprintf("%s-s%d-k%d", p.triple(), p.seed, p.k) }

var eqPoints = func() []eqPoint {
	const hi, lo, rnd, u = core.SelectMax, core.SelectMin, core.SelectRnd, core.Unlimited
	var ps []eqPoint
	for _, pol := range []core.SelectionPolicy{hi, lo, rnd} {
		for _, thr := range []int{u, 10} {
			for _, kl := range []int{u, 4, 1} {
				ps = append(ps, eqPoint{pol, thr, kl, 1, 5}, eqPoint{pol, thr, kl, 42, 5})
			}
		}
	}
	return append(ps,
		eqPoint{hi, 10, 8, 5, 5}, eqPoint{hi, u, 6, 2, 5}, eqPoint{rnd, u, 3, 1, 5}, eqPoint{lo, 10, 3, 42, 5},
		eqPoint{hi, 12, 6, 42, 5}, eqPoint{rnd, u, 3, 42, 5}, eqPoint{hi, 8, 6, 3, 5},
		eqPoint{hi, u, 8, 1, 5}, eqPoint{hi, 5, u, 1, 5}, eqPoint{hi, 5, 4, 2, 5}, eqPoint{hi, u, 8, 3, 5},
		eqPoint{hi, u, 8, 4, 5}, eqPoint{lo, u, 6, 5, 5}, eqPoint{rnd, u, 6, 5, 5}, eqPoint{hi, u, 8, 6, 10})
}()

// eqFault is a fault-axis value: one wire.ChaosEvent on the first session of
// the queried shard's serving replica (replica 0, which beginAttempt elects),
// of its standby (replica 1), or of every replica of its group. The queried
// shard is the first a query touches (see eqTarget), or, for a value marked
// last, the last shard of a full run, so that a failover in a group other
// than the first, at its own offset in the pool, shows.
type eqFault struct {
	name string
	ev   wire.ChaosEvent
	who  string // "serving", "standby" or "group"
	last bool
}

var eqFaults = func() []eqFault {
	atStep := func(s core.DistStep) wire.ChaosEvent { // the worker cuts on reading s's step-begin
		return wire.ChaosEvent{Dir: wire.ChaosReads, Kind: wire.KindStepBegin, Step: s, Op: wire.ChaosCut}
	}
	partials := func(op wire.ChaosOp, d time.Duration) wire.ChaosEvent { // at its first partials frame
		return wire.ChaosEvent{Dir: wire.ChaosWrites, Kind: wire.KindPartials, Op: op, Delay: d}
	}
	kills := func(prefix, who, suffix string) (fs []eqFault) { // at each superstep
		for _, s := range core.DistSteps() {
			fs = append(fs, eqFault{prefix + s.String() + suffix, atStep(s), who, suffix == "-last"})
		}
		return fs
	}
	fs := slices.Concat([]eqFault{{name: "none"}}, kills("kill-", "serving", ""), kills("kill-standby-", "standby", ""))
	fs = append(fs, eqFault{"corrupt", partials(wire.ChaosCorrupt, 0), "serving", false},
		eqFault{"blackhole", partials(wire.ChaosDrop, 0), "serving", false},
		eqFault{"delay", partials(wire.ChaosDelay, 100*time.Millisecond), "serving", false},
		eqFault{"lose-partition", atStep(core.DistTruncate), "group", false},
		eqFault{"cancel", partials(wire.ChaosDelay, 0), "serving", false}) // held until the row has cancelled
	return slices.Concat(fs, kills("kill-", "serving", "-last"), kills("kill-standby-", "standby", "-last"))
}()

// A fault row's StepTimeout: far above a healthy phase, so that a delay stays
// jitter; a blackhole row waits one out, so its is short.
const eqFaultTimeout, eqBlackholeTimeout = 2 * time.Second, 500 * time.Millisecond

// eqOutcome is the one way a row may end: the oracle rows (err nil) or err,
// with exactly dead workers, failovers and fired fault events, within a
// wall time (0: unbounded). A cancellation's own closes kill no worker.
type eqOutcome struct {
	err                    error
	dead, failovers, fired int
	within                 time.Duration
}

// expect is f's outcome at reps replicas under StepTimeout timeout.
func (f eqFault) expect(reps int, timeout time.Duration) eqOutcome {
	if f.name == "none" {
		return eqOutcome{}
	}
	o := eqOutcome{dead: 1, fired: 1}
	switch {
	case f.name == "delay":
		o.dead = 0
	case f.name == "cancel":
		o = eqOutcome{err: context.Canceled, fired: 1, within: 2 * timeout}
	case f.who == "group":
		o = eqOutcome{err: ErrPartitionLost, dead: reps, fired: reps, within: 2 * timeout}
	case reps == 1:
		o.err, o.within = ErrPartitionLost, 2*timeout
	case f.who == "serving":
		o.failovers = 1
		if f.name == "blackhole" {
			o.within = 3 * timeout
		}
	}
	return o
}

// eqFeatures is what axis ax's value v adds to a case of the system: the
// names eqRequired is written in. BASELINE has no storage, scope, entry
// point or config.
func eqFeatures(system, ax, v int) []string {
	if system == eqBaseline && ax != axSystem && ax != axBackend && ax != axGraph {
		return nil
	}
	return eqFeatureTable[ax][v]
}

var eqFeatureTable = func() (t [eqAxes][][]string) {
	add := func(ax int, fs ...string) { t[ax] = append(t[ax], fs) }
	for _, ax := range []struct {
		ax     int
		prefix string
		names  []string
	}{{axSystem, "system=", eqSystems}, {axStorage, "storage=", eqStorages}, {axScope, "scope=", eqScopes},
		{axEntry, "entry=", eqEntries}, {axScore, "score=", core.ScoreNames()}} {
		for _, name := range ax.names {
			add(ax.ax, ax.prefix+name)
		}
	}
	for _, b := range eqBackends {
		add(axBackend, append([]string{"backend=" + b.name, "kind=" + b.kind}, b.tags...)...)
	}
	for _, g := range eqGraphs {
		add(axGraph, "graph="+g.name)
	}
	for _, p := range eqPoints {
		add(axPoint, "point="+p.String(), "triple="+p.triple())
	}
	for v := 1; v < len(eqScopes); v++ {
		t[axScope][v] = append(t[axScope][v], "scoped")
	}
	for _, f := range eqFaults {
		fs := []string{"fault=" + f.name}
		if f.name != "none" {
			fs = append(fs, "faulted")
		}
		add(axFault, fs...)
	}
	return t
}()

// features returns c's features over its filled axes, as SNAPLE's until
// the system is filled.
func (c eqCase) features() []string {
	var fs []string
	for ax, v := range c {
		if v >= 0 {
			fs = append(fs, eqFeatures(max(c[axSystem], 0), ax, v)...)
		}
	}
	return fs
}

func eqHas(features, item []string) bool {
	return !slices.ContainsFunc(item, func(f string) bool { return !slices.Contains(features, f) })
}

func (c eqCase) String() string {
	parts := []string{eqBackends[c[axBackend]].name, eqSystems[c[axSystem]], eqGraphs[c[axGraph]].name}
	if c[axSystem] != eqBaseline {
		parts = append(parts, eqStorages[c[axStorage]], eqScopes[c[axScope]], eqEntries[c[axEntry]],
			core.ScoreNames()[c[axScore]], eqPoints[c[axPoint]].String())
	}
	if f := c[axFault]; f > 0 {
		return "fault-" + eqFaults[f].name + "-" + strings.Join(parts, "/")
	}
	return strings.Join(parts, "/")
}

// eqValid reports whether c's filled axes fit together: BASELINE runs on
// the sim over the heap CSR with every other axis at its first value, a
// standing fleet serves no pending mutation, the graph has the scope's
// sources, and an isolated source stays isolated under mutation only past
// the core of a padded graph.
func eqValid(c eqCase) bool {
	kind, mutates := "", c[axStorage] >= eqMutated
	if c[axBackend] >= 0 {
		kind = eqBackends[c[axBackend]].kind
	}
	if kind == "fleet" && mutates || c[axSystem] == eqBaseline &&
		(kind != "" && kind != "sim" || max(c[axStorage], c[axScope], c[axEntry], c[axScore], c[axPoint]) > 0) {
		return false
	}
	// A fault row runs SNAPLE on fresh wire workers, a pool Dist or a fleet,
	// over sources that touch a shard; a standby needs a second replica, a
	// cancellation the entry point that takes a context, and a fault on the
	// last shard a full run, a second replica and a group before its own.
	if f := eqFaults[max(c[axFault], 0)]; c[axFault] > 0 {
		if c[axSystem] == eqBaseline || c[axScope] >= 0 && eqScopes[c[axScope]] == "isolated" ||
			f.last && c[axScope] > 0 || f.name == "cancel" && c[axEntry] >= 0 && eqEntries[c[axEntry]] != "PredictScoped" {
			return false
		}
		if b := c[axBackend]; b >= 0 && (kind != "fleet" && (kind != "dist" || eqBackends[b].pool == 0) ||
			(f.who == "standby" || f.last) && eqBackends[b].replicas < 2 ||
			f.last && eqBackends[b].workers < 2*eqBackends[b].replicas) {
			return false
		}
	}
	if c[axScope] < 0 || c[axGraph] < 0 {
		return true
	}
	gr := eqGraphs[c[axGraph]]
	return eqFits[c[axScope]][c[axGraph]] && !(eqScopes[c[axScope]] == "isolated" && mutates && gr.isolated < gr.core)
}

// eqRequired lists what the inventory demands: every value of every axis,
// and every combination below, in at least one case.
func eqRequired() (items [][]string) {
	cross := func(as, bs []string, more ...string) {
		for _, a := range as {
			for _, b := range bs {
				if a != "kind=fleet" || b != "storage=mutated" && b != "storage=compacted" {
					items = append(items, append([]string{a, b}, more...))
				}
			}
		}
	}
	for ax := range axFault {
		for _, f := range eqNames(ax, 0) {
			items = append(items, []string{f})
		}
	}
	kinds, storages, scopes := []string{"kind=serial", "kind=local", "kind=sim", "kind=dist", "kind=fleet"}, eqNames(axStorage, 0), eqNames(axScope, 0)
	cross(kinds, storages)
	cross(kinds, eqNames(axPoint, 1)) // every (policy, thrΓ, k_local)
	cross(kinds, eqNames(axScore, 0))
	cross(storages, scopes)
	cross(eqNames(axBackend, 0), scopes)
	cross(kinds, eqNames(axEntry, 0), "scope=full") // PredictScoped's full-run convention on every backend
	cross(kinds, eqNames(axEntry, 0), "scope=single")
	cross([]string{"kind=sim", "kind=dist"}, []string{"strategy=hash-edge", "strategy=hash-source", "strategy=greedy"})
	cross([]string{"system=baseline"}, append(eqNames(axGraph, 0),
		"parts=1", "parts=3", "parts=8", "hostw=1", "hostw=4", "strategy=hash-edge", "strategy=greedy"))
	items = append(items,
		[]string{"backend=local-w64", "graph=test40-s5"},
		[]string{"backend=local-w4", "graph=test549-s13"},
		[]string{"kind=sim", "graph=community400-s21"},
		// Closures on both sides of core's promotion rules, on each storage.
		[]string{"graph=test300-s7-pad16", "scope=single"},
		[]string{"graph=test300-s7-pad120", "scope=single"},
		[]string{"graph=test300-s7-pad120", "scope=duplicates"},
		[]string{"graph=test250-s13-pad16", "storage=mapped", "scope=single"},
		[]string{"graph=test250-s13-pad16", "storage=packed", "scope=six-storage"},
		[]string{"graph=test250-s13-pad16", "storage=delta", "scope=single"})
	return append(append(items, eqTables()...), eqFaultItems()...)
}

// eqFaultItems lists the fault axis's demands, last, so that a fault row is
// generated only once every other item is covered and never stands in for a
// healthy one: each fault value on each wire kind, on a full and a scoped
// run, and at one and at several replicas where it is valid; a faulted row
// on mapped and on packed storage; and the rows of the chaos tests the axis
// replaced (see eqChaosTables), which alone demand the kills in the last
// group, each on each wire kind.
func eqFaultItems() (items [][]string) {
	for v, f := range eqNames(axFault, 0) {
		if eqFaults[v].last {
			continue
		}
		items = append(items, []string{f})
		for _, w := range []string{"wire=dist", "wire=fleet", "wire=resident", "scope=full", "scoped", "R=1", "R=2+"} {
			if eqFaults[v].who != "standby" || w != "R=1" {
				items = append(items, []string{f, w})
			}
		}
	}
	items = append(items, []string{"faulted", "storage=mapped"}, []string{"faulted", "storage=packed"})
	return append(items, eqChaosTables()...)
}

// eqChaosTables lists the rows the chaos tests the fault axis replaced ran,
// on each wire kind: every fault at their operating point (linearSum,
// max-thr10-kl4-s42-k5, on test200-s7's full run), replicated as they were
// (a lost partition also unreplicated, a cancel at any replica count), and
// every kill, of the serving replica and of the standby at each superstep,
// in the first group and in the last, also with PPR under rnd, since the
// re-run must redraw the same seeded sample.
func eqChaosTables() (items [][]string) {
	const hi, rnd = core.SelectMax, core.SelectRnd
	at := func(score string, p eqPoint, more ...string) []string {
		return append([]string{"score=" + score, "point=" + p.String(), "graph=test200-s7", "scope=full"}, more...)
	}
	op := eqPoint{hi, 10, 4, 42, 5}
	for _, f := range eqNames(axFault, 0)[1:] {
		for _, w := range []string{"wire=dist", "wire=fleet", "wire=resident"} {
			switch name := strings.TrimPrefix(f, "fault="); {
			case name == "cancel":
				items = append(items, at("linearSum", op, f, w))
			case name == "lose-partition":
				items = append(items, at("linearSum", op, f, w, "R=2+"))
				if w != "wire=resident" { // the resident fleet is replicated
					items = append(items, at("linearSum", op, f, w, "R=1"))
				}
			case strings.HasPrefix(name, "kill-"):
				items = append(items, at("PPR", eqPoint{rnd, 10, 4, 42, 5}, f, w, "R=2+"))
				fallthrough
			default:
				items = append(items, at("linearSum", op, f, w, "R=2+"))
			}
		}
	}
	return items
}

// eqTables lists the crosses the per-backend tables this harness replaced
// ran, combination for combination: each backend a table ran × each config
// it ran (score and point) × each graph and scope it ran them on. The pairs
// above make every value meet every other; these keep every row a table
// checked checked, with the storage and entry point left free to vary.
func eqTables() (items [][]string) {
	type config struct {
		score string
		p     eqPoint
	}
	cross := func(backends []string, configs []config, where ...[]string) {
		for _, b := range backends {
			for _, c := range configs {
				for _, w := range where {
					items = append(items, append([]string{"backend=" + b, "score=" + c.score, "point=" + c.p.String()}, w...))
				}
			}
		}
	}
	const hi, lo, rnd, u = core.SelectMax, core.SelectMin, core.SelectRnd, core.Unlimited
	op := eqPoint{hi, 10, 4, 42, 5} // the paper-style operating point the tables share
	at := func(p eqPoint, scores ...string) (cs []config) {
		for _, s := range scores {
			cs = append(cs, config{s, p})
		}
		return cs
	}
	full := func(graph string) []string { return []string{"graph=" + graph, "scope=full"} }
	sims := func(ss ...Sim) (names []string) {
		for _, s := range ss {
			names = append(names, eqSim(s).name)
		}
		return names
	}

	// Local: workers 1, 3, 8 × the policy × thrΓ × k_local × seed cross
	// (eqPoints' first 36) and every other score at op.
	var local []config
	for _, p := range eqPoints[:3*2*3*2] {
		local = append(local, config{"linearSum", p})
	}
	for _, s := range core.ScoreNames() {
		if s != "linearSum" {
			local = append(local, config{s, op})
		}
	}
	cross([]string{"local-w1", "local-w3", "local-w8"}, local, full("test300-s7"))

	// Frontier: seven backends × seven configs × the source sets on
	// test300-s7, padded past the arena rule, and padded past the list rule.
	var where [][]string
	for _, g := range []string{"test300-s7", "test300-s7-pad16"} {
		for _, s := range []string{"single", "hub", "duplicates", "random25", "all"} {
			where = append(where, []string{"graph=" + g, "scope=" + s})
		}
	}
	where = append(where, []string{"graph=test300-s7-pad120", "scope=single"}, []string{"graph=test300-s7-pad120", "scope=duplicates"})
	frontier := slices.Concat(at(eqPoint{hi, 10, 4, 42, 5}, "linearSum", "geomSum", "PPR"),
		at(eqPoint{lo, 10, 4, 42, 5}, "linearSum"), at(eqPoint{rnd, 10, 4, 42, 5}, "linearSum"),
		at(eqPoint{hi, u, u, 42, 5}, "linearSum"), at(eqPoint{rnd, u, 3, 42, 5}, "linearSum"))
	cross(slices.Concat([]string{"serial", "local-w1", "local-w3", "local-w8"}, sims(Sim{Nodes: 3, Seed: 9}),
		[]string{"dist-inproc1", "dist-inproc3"}), frontier, where...)

	// GAS: type-I sims of 1, 4 and 7 partitions × eleven configs on
	// community400-s21.
	cross(sims(typeISim(1, 3, 37), typeISim(4, 3, 37), typeISim(7, 3, 37)), slices.Concat(
		at(eqPoint{hi, u, u, 1, 5}, "linearSum"), at(eqPoint{hi, u, 8, 1, 5}, "linearSum"),
		at(eqPoint{hi, 5, u, 1, 5}, "linearSum"), at(eqPoint{hi, 5, 4, 2, 5}, "linearSum"),
		at(eqPoint{hi, u, 8, 3, 5}, "counter", "PPR"), at(eqPoint{hi, u, 8, 4, 5}, "euclMean", "geomGeom"),
		at(eqPoint{lo, u, 6, 5, 5}, "linearSum"), at(eqPoint{rnd, u, 6, 5, 5}, "linearSum"),
		at(eqPoint{hi, u, 8, 6, 10}, "linearSum")), full("community400-s21"))

	// Partitioning: type-I cuts of 2 and 5 parts, by each strategy, on er120.
	cross(sims(Sim{Nodes: 2, Spec: cluster.TypeI(), Partitions: 2, Strategy: partition.HashSource{Seed: 34}, Workers: 4},
		Sim{Nodes: 2, Spec: cluster.TypeI(), Partitions: 5, Strategy: partition.Greedy{}, Workers: 1},
		Sim{Nodes: 2, Spec: cluster.TypeI(), Partitions: 5, Strategy: partition.HashEdge{Seed: 9}, Workers: 4}),
		at(eqPoint{hi, 8, 6, 3, 5}, "linearSum"), full("er120"))

	// Dist: 1, 2 and 4 pool workers × eleven configs on test200-s7.
	cross([]string{"dist-w1", "dist-w2", "dist-w4"}, slices.Concat(
		at(eqPoint{hi, u, u, 1, 5}, "linearSum"), at(op, "linearSum", "PPR", "counter", "geomMean", "euclGeom"),
		at(eqPoint{lo, 10, 4, 42, 5}, "linearSum"), at(eqPoint{rnd, 10, 4, 42, 5}, "linearSum"),
		at(eqPoint{rnd, u, 4, 1, 5}, "linearSum"), at(eqPoint{hi, 10, 1, 42, 5}, "linearSum"),
		at(eqPoint{rnd, u, 3, 1, 5}, "geomSum")), full("test200-s7"))

	// Fleet: the four standing shapes × five configs on test200-s7.
	cross([]string{"fleet-1x1", "fleet-2x1", "fleet-4x1", "fleet-3x2"}, slices.Concat(
		at(eqPoint{hi, u, u, 1, 5}, "linearSum"), at(eqPoint{rnd, 10, 4, 42, 5}, "linearSum"),
		at(op, "PPR", "geomMean"), at(eqPoint{lo, 10, 3, 42, 5}, "counter")), full("test200-s7"))

	// BASELINE: the nodes-2 cuts × the community graphs of 300 and 800
	// vertices at seeds 1-6.
	for _, b := range sims(Sim{Nodes: 2, Partitions: 1, Strategy: partition.HashEdge{Seed: 31}, Workers: 1},
		Sim{Nodes: 2, Partitions: 3, Strategy: partition.HashEdge{Seed: 33}, Workers: 4},
		Sim{Nodes: 2, Partitions: 8, Strategy: partition.Greedy{}, Workers: 1},
		Sim{Nodes: 2, Partitions: 8, Strategy: partition.HashEdge{Seed: 8}, Workers: 4}) {
		for _, n := range []int{300, 800} {
			for seed := 1; seed <= 6; seed++ {
				items = append(items, []string{"system=baseline", "backend=" + b, fmt.Sprintf("graph=community%d-s%d", n, seed)})
			}
		}
	}
	return items
}

// eqNames returns the distinct i-th features of axis ax's values.
func eqNames(ax, i int) (fs []string) {
	for v := range len(eqFeatureTable[ax]) {
		if f := eqFeatureTable[ax][v][i]; !slices.Contains(fs, f) {
			fs = append(fs, f)
		}
	}
	return fs
}

// eqGenerate builds the covering set greedily: for each item not yet
// covered, one case, filling the axes the item names first. Each axis takes
// the valid value that keeps the item's features and completes the most
// uncovered items; ties go to the value fewest cases used, so that what no
// item names spreads over every value, then to the simplest.
func eqGenerate() ([]eqCase, error) {
	items, owner := eqRequired(), map[string]int{}
	for ax, values := range eqFeatureTable {
		for _, f := range slices.Concat(values...) {
			owner[f] = ax
		}
	}
	byFeature := map[string][]int{}
	for i, item := range items {
		for _, f := range item {
			byFeature[f] = append(byFeature[f], i)
		}
	}
	var cases []eqCase
	used, covered := map[[2]int]int{}, make([]bool, len(items)) // cases per axis value; items covered
	for i, item := range items {
		if covered[i] {
			continue
		}
		c := eqCase{-1, -1, -1, -1, -1, -1, -1, -1, -1}
		// The axes item names, then the rest; a named fault first, since it
		// narrows the backends that may take it, and an unnamed one last.
		names := func(ax int) bool { return slices.ContainsFunc(item, func(f string) bool { return owner[f] == ax }) }
		var order []int
		if names(axFault) {
			order = append(order, axFault)
		}
		for pass := range 2 {
			for ax := range axFault {
				if names(ax) == (pass == 0) {
					order = append(order, ax)
				}
			}
		}
		if !names(axFault) {
			order = append(order, axFault)
		}
		for _, ax := range order {
			if ax == axFault && !names(axFault) {
				c[ax] = 0 // a fault only where an item asks for one
				continue
			}
			best, bestGain := -1, -1
			for v := range len(eqFeatureTable[ax]) {
				d := c
				d[ax] = v
				gain, fs := 0, d.features()
				if !eqValid(d) || slices.ContainsFunc(item, func(f string) bool { return d[owner[f]] >= 0 && !slices.Contains(fs, f) }) {
					continue // the item's features on the filled axes must hold
				}
				for _, f := range eqFeatures(max(d[axSystem], 0), ax, v) {
					for _, j := range byFeature[f] {
						if !covered[j] && eqHas(fs, items[j]) {
							gain++
						}
					}
				}
				if gain > bestGain || gain == bestGain && used[[2]int{ax, v}] < used[[2]int{ax, best}] {
					best, bestGain = v, gain
				}
			}
			if best < 0 {
				return nil, fmt.Errorf("no valid case covers %v", item)
			}
			c[ax] = best
			used[[2]int{ax, best}]++
		}
		for j, fs := range items {
			covered[j] = covered[j] || eqHas(c.features(), fs)
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// eqHarness holds what cases share, each built once: storage views, oracle
// answers, the worker pool and standing fleets.
type eqHarness struct {
	top     *testing.T // owns every pool, listener and fleet
	dir     string
	pool    []string
	views   map[[2]int]eqView
	oracles map[[5]int]core.Predictions // by graph, mutated or not, system, score, point
	fleets  map[[3]int]*Fleet
	cuts    map[[3]int]error // eqCheckCut's verdict, by the fleets' key
	forms   closureForms
}

// eqView is a graph in one storage, and the heap CSR it must equal.
type eqView struct {
	view graph.View
	csr  *graph.Digraph
	err  error
}

// view returns graph gi in storage si, with the heap CSR it must equal: the
// graph itself, or for a mutating storage mutatedCSR.
func (h *eqHarness) view(t testing.TB, gi, si int) eqView {
	if v, ok := h.views[[2]int{gi, si}]; ok {
		return v
	}
	var g *graph.Digraph
	if si == 0 {
		g = eqGraphs[gi].build(t)
	} else {
		g = h.view(t, gi, 0).csr // the heap CSR, built once
	}
	v := eqView{view: g, csr: g}
	switch name := eqStorages[si]; name {
	case "mapped", "packed":
		var buf bytes.Buffer
		var info graph.LoadInfo
		path := filepath.Join(h.dir, fmt.Sprintf("g%d-%s.sgr", gi, name))
		if v.err = graph.WriteSnapshotOpts(&buf, g, graph.SnapshotOptions{Packed: name == "packed"}); v.err == nil {
			if v.err = os.WriteFile(path, buf.Bytes(), 0o644); v.err == nil {
				v.view, info, v.err = graph.OpenGraphFile(path, graph.ReadOptions{})
			}
		}
		if _, packed := v.view.(*graph.Packed); v.err == nil && (info.Version < 2 || packed != (name == "packed")) {
			v.err = fmt.Errorf("snapshot opened as v%d %T", info.Version, v.view)
		}
	case "delta":
		// A base missing the first out-edge of a few vertices, which a
		// mutation batch adds back: an overlay that is really consulted.
		var moved []graph.Edge
		for _, u := range []graph.VertexID{0, 3, 50, 120} {
			if int(u) < g.NumVertices() && g.OutDegree(u) > 0 {
				moved = append(moved, graph.Edge{Src: u, Dst: g.OutNeighbors(u)[0]})
			}
		}
		v.view, v.err = graph.NewDelta(g.WithoutEdges(moved).Materialize()).Apply(moved, nil)
	case "mutated", "compacted":
		d := mutatedView(t, g)
		v.view, v.csr = d, mutatedCSR(t, g)
		if name == "compacted" {
			var buf bytes.Buffer
			if v.err = graph.WriteSnapshot(&buf, d.Materialize()); v.err == nil {
				v.view, v.err = graph.ReadSnapshot(&buf)
			}
		}
	}
	h.views[[2]int{gi, si}] = v
	return v
}

// backend returns c's backend, opening (once) the fleet it names, after
// holding the cut it runs on to its shape.
func (h *eqHarness) backend(t testing.TB, c eqCase, v eqView) (Backend, error) {
	b, key, o := eqBackends[c[axBackend]], [3]int{c[axBackend], c[axGraph], c[axStorage]}, eqBackends[c[axBackend]].opts
	if f, ok := h.fleets[key]; ok {
		return f, nil
	}
	var files []*graph.ShardFile
	if b.kind == "dist" {
		o.Addrs = h.pool[:b.pool]
	} else if b.resident {
		files, o.Manifest = packVia(t, v.csr, nil, eqResidentSeed, b.workers/b.replicas)
	}
	switch err := h.cut(c, v, o); {
	case err != nil:
		return nil, err
	case b.be != nil:
		return b.be, nil
	case b.kind == "dist":
		return Dist(o), nil
	case b.resident:
		o.Addrs = serveResident(h.top, files, b.replicas)
	}
	f, err := OpenFleet(v.view, o)
	if err != nil {
		return nil, err
	}
	h.top.Cleanup(func() { f.Close() })
	if info := f.FleetInfo(); info.Workers != b.workers || info.Replicas != b.replicas || o.Manifest != nil && info.Fingerprint != o.Manifest.Fingerprint {
		return nil, fmt.Errorf("fleet info %+v", info)
	}
	h.fleets[key] = f
	return f, nil
}

// cut returns eqCheckCut's verdict on the cut c's backend runs on with o,
// held once per backend, graph and storage.
func (h *eqHarness) cut(c eqCase, v eqView, o FleetOptions) error {
	key := [3]int{c[axBackend], c[axGraph], c[axStorage]}
	err, ok := h.cuts[key]
	if !ok {
		err = eqCheckCut(eqBackends[c[axBackend]], v.view, o)
		h.cuts[key] = err
	}
	return err
}

// want is the one oracle: the reference over the CSR the view must equal,
// filtered to the sources.
func (h *eqHarness) want(t testing.TB, c eqCase, csr *graph.Digraph, cfg core.Config) core.Predictions {
	key := [5]int{c[axGraph], min(c[axStorage]/eqMutated, 1), c[axSystem], c[axScore], c[axPoint]}
	full, ok := h.oracles[key]
	if !ok {
		var err error
		if c[axSystem] == eqBaseline {
			full, err = core.ReferenceBaseline(csr, 5)
		} else {
			unscoped := cfg
			unscoped.Sources = nil
			full, err = core.ReferenceSnaple(csr, unscoped)
		}
		if err != nil {
			t.Fatal(err)
		}
		h.oracles[key] = full
	}
	if cfg.Sources == nil {
		return full
	}
	return filterToSources(full, cfg.Sources)
}

// eqConfig is c's SNAPLE config, sources included (zero for BASELINE).
func eqConfig(t testing.TB, c eqCase) core.Config {
	if c[axSystem] == eqBaseline {
		return core.Config{}
	}
	p := eqPoints[c[axPoint]]
	cfg := core.Config{Score: mustScore(t, core.ScoreNames()[c[axScore]]), K: p.k, KLocal: p.klocal,
		ThrGamma: p.thr, Policy: p.policy, Seed: p.seed}
	cfg.Sources, _ = eqScopeSources(eqScopes[c[axScope]], eqGraphs[c[axGraph]])
	return cfg
}

// check runs c and returns how it departs from the oracle or from the Stats
// invariants, or nil.
func (h *eqHarness) check(t testing.TB, c eqCase) error {
	v := h.view(t, c[axGraph], c[axStorage])
	if v.err != nil {
		return v.err
	}
	if c[axFault] > 0 {
		return h.checkFault(t, c, v)
	}
	be, err := h.backend(t, c, v)
	if err != nil {
		return err
	}
	cfg := eqConfig(t, c)
	var got core.Predictions
	var st Stats
	if c[axSystem] == eqBaseline {
		got, st, err = be.(Sim).PredictBaseline(v.view, 5)
	} else {
		if cfg.Sources != nil {
			h.forms.note(t, v.csr, cfg)
		}
		got, st, err = eqRun(context.Background(), c, be, v.view, cfg)
	}
	if err != nil {
		return err
	}
	if err := eqCompare(h.want(t, c, v.csr, cfg), got); err != nil {
		return err
	}
	return eqCheckStats(c, st, v.view, cfg.Sources, eqOutcome{})
}

// eqRun runs cfg on be through c's entry point and returns the dense rows,
// holding PredictScoped's Vertices and Row to its Dense rows.
func eqRun(ctx context.Context, c eqCase, be Backend, g graph.View, cfg core.Config) (core.Predictions, Stats, error) {
	if eqEntries[c[axEntry]] == "Predict" {
		return be.Predict(g, cfg)
	}
	sp, st, err := PredictScoped(ctx, be, g, cfg)
	if err != nil {
		return nil, st, err
	}
	if verts := slices.Compact(slices.Sorted(slices.Values(cfg.Sources))); !reflect.DeepEqual(sp.Vertices, verts) {
		return nil, st, fmt.Errorf("PredictScoped returned Vertices %v, want %v", sp.Vertices, verts)
	}
	got := sp.Dense(g.NumVertices())
	for u, row := range got {
		if !reflect.DeepEqual(sp.Row(graph.VertexID(u)), row) {
			return nil, st, fmt.Errorf("PredictScoped's Row(%d) is not its Dense row", u)
		}
	}
	return got, st, nil
}

func eqCompare(want, got core.Predictions) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for u := range want {
		if !reflect.DeepEqual(want[u], got[u]) {
			return fmt.Errorf("vertex %d: got %v, want %v", u, got[u], want[u])
		}
	}
	return nil
}

// checkFault runs fault row c on fresh workers, a pool Dist or a fleet newly
// opened on them, whose target replicas fault their first sessions; the
// target shard is eqTarget's. The run must end in its fault's one outcome,
// with every fault event it expects fired and no other; a cancelled row's
// workers must then answer the next query with the oracle rows; and once the
// row is torn down no goroutine and no descriptor may outlive it.
func (h *eqHarness) checkFault(t testing.TB, c eqCase, v eqView) (err error) {
	b, f, cfg := eqBackends[c[axBackend]], eqFaults[c[axFault]], eqConfig(t, c)
	want, o := h.want(t, c, v.csr, cfg), b.opts
	o.InProc, o.StepTimeout = b.workers/b.replicas, eqFaultTimeout
	if f.name == "blackhole" {
		o.StepTimeout = eqBlackholeTimeout
	}
	// The cut the workers will hold: a resident fleet's packed shards, or the
	// one OpenFleet computes for the shape the pool's Addrs will have.
	var resident []*graph.ShardFile
	if b.resident {
		resident, o.Manifest = packVia(t, v.csr, nil, eqResidentSeed, o.InProc)
	}
	files := resident
	if files == nil {
		if files, _, err = PackShards(v.view, o.Strategy, o.Seed, o.InProc); err != nil {
			return err
		}
	}
	if err := h.cut(c, v, o); err != nil {
		return err
	}
	target, err := eqTarget(files, cfg.Sources, f.last)
	if err != nil {
		return err
	}
	out := f.expect(b.replicas, o.StepTimeout)

	snap := leakcheck.Take()
	ctx, cancel := context.WithCancel(context.Background())
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	var fired atomic.Int64
	ev := f.ev
	if f.name == "cancel" {
		ev.Hold = hold
	}
	n := cmp.Or(b.pool, b.workers)
	addrs, stop, err := eqFaultPool(n, b.replicas, resident, func(i int) []wire.ChaosEvent {
		if s, r := i/b.replicas, i%b.replicas; s != target ||
			f.who == "serving" && r != 0 || f.who == "standby" && r != 1 {
			return nil
		}
		return []wire.ChaosEvent{ev}
	}, func(wire.ChaosEvent) {
		if fired.Add(1); f.name == "cancel" {
			cancel() // the stalled frame is in flight: cancel mid-superstep
		}
	})
	if err != nil {
		cancel()
		return err
	}
	defer func() {
		cancel()
		release()
		stop()
		if lerr := snap.Settle(); err == nil {
			err = lerr
		}
	}()
	o.Addrs = addrs
	var be Backend = Dist(o)
	var fl *Fleet
	if b.kind == "fleet" {
		if fl, err = OpenFleet(v.view, o); err != nil {
			return err
		}
		defer fl.Close()
		be = fl
	}

	var deadAtOpen int
	if fl != nil {
		deadAtOpen = fl.Stats().WorkersDead
	}
	start := time.Now()
	got, st, err := eqRun(ctx, c, be, v.view, cfg)
	switch wall := time.Since(start); {
	case int(fired.Load()) != out.fired:
		return fmt.Errorf("%d fault events fired, want %d (err %v)", fired.Load(), out.fired, err)
	case out.within > 0 && wall > out.within:
		return fmt.Errorf("took %v, want at most %v (err %v)", wall, out.within, err)
	case out.err == nil && err != nil:
		return err
	case out.err != nil && !errors.Is(err, out.err):
		return fmt.Errorf("err = %v, want %v", err, out.err)
	case st.WorkersDead != out.dead:
		return fmt.Errorf("WorkersDead = %d, want %d (err %v)", st.WorkersDead, out.dead, err)
	case out.err == nil:
		if err := eqCompare(want, got); err != nil {
			return err
		}
		return eqCheckStats(c, st, v.view, cfg.Sources, out)
	case f.name != "cancel":
		return nil
	}
	// The workers saw their sessions end, not their processes: the fleet
	// counts none of them dead, and the same workers, behind the same
	// backend, answer the next query.
	if fl != nil {
		if dead := fl.Stats().WorkersDead; dead != deadAtOpen {
			return fmt.Errorf("the fleet counts %d workers dead after the cancel, %d before", dead, deadAtOpen)
		}
	}
	release()
	if got, st, err = eqRun(context.Background(), c, be, v.view, cfg); err != nil {
		return fmt.Errorf("the query after the cancel: %w", err)
	}
	if err := eqCompare(want, got); err != nil {
		return fmt.Errorf("the query after the cancel: %w", err)
	}
	return eqCheckStats(c, st, v.view, cfg.Sources, eqOutcome{})
}

// eqTarget is the shard a fault row faults, one its query touches: on a
// full run shard 0 of files, or its last shard when last; otherwise the
// first holding out-edges of the first source with any. Every superstep
// gathers there, since a scoped query's sources are in each step's scope
// (Pred ⊆ Sims ⊆ Trunc), so a step-keyed fault always fires.
func eqTarget(files []*graph.ShardFile, sources []graph.VertexID, last bool) (int, error) {
	if sources == nil && last {
		return len(files) - 1, nil
	}
	if sources == nil {
		return 0, nil
	}
	for _, u := range sources {
		for p, sf := range files {
			if slices.ContainsFunc(sf.EdgeSrc, func(si int32) bool { return sf.Locals[si] == u }) {
				return p, nil
			}
		}
	}
	return 0, errors.New("no source has out-edges: the query touches no shard")
}

// eqFaultPool stands up n fresh loopback workers, shard-major in groups of
// reps and resident for their shard when files is set, each serving its
// first session over a wire.ChaosTransport scripted by events(i) that
// reports to fired, and its later ones clean. stop closes the listeners; the
// sessions end with their connections.
func eqFaultPool(n, reps int, files []*graph.ShardFile, events func(i int) []wire.ChaosEvent, fired func(wire.ChaosEvent)) (addrs []string, stop func(), err error) {
	var ls []net.Listener
	stop = func() {
		for _, l := range ls {
			l.Close()
		}
	}
	for i := range n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		ls = append(ls, l)
		var so wire.ServeOptions
		if files != nil {
			so.Resident = files[i/reps]
		}
		evs := events(i)
		go func() {
			for first := true; ; first = false {
				c, err := l.Accept()
				if err != nil {
					return
				}
				var rwc io.ReadWriteCloser = c
				if first && evs != nil {
					rwc = wire.NewChaosTransport(c, evs, fired)
				}
				go func() { _ = wire.ServeConnWith(rwc, so) }()
			}
		}()
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, stop, nil
}

// eqResidentSeed seeds the cut of the resident fleet's packed shards.
const eqResidentSeed = 39

// eqCheckCut holds the cut backend b runs on g to its shape: with more than
// one partition and at least 100 edges, no partition is empty. The cut is
// the engine's own: Sim.open's for a sim row, and for a dist or fleet row
// opening with o, the one PackShards computes for OpenFleet's shape of o (a
// resident fleet's is o.Manifest). A hash cut keyed by the seed that drew
// g's edges degenerates (testGraph keeps an edge by the hash HashEdge places
// it by), so every row's cut has a seed no harness graph uses.
func eqCheckCut(b eqBackend, g graph.View, o FleetOptions) error {
	var edges []int64
	switch {
	case b.kind == "sim":
		r, err := b.be.(Sim).open(g, 0, func(*graph.ShardFile) (*core.DistPartition, error) { return nil, nil })
		if err != nil {
			return err
		}
		for _, sh := range r.cut.Shards {
			edges = append(edges, int64(len(sh.EdgeSrc)))
		}
	case o.Manifest != nil:
		edges = o.Manifest.Edges
	case b.kind == "dist" || b.kind == "fleet":
		shards, _, err := o.shape()
		if err != nil {
			return err
		}
		_, man, err := PackShards(g, o.Strategy, o.Seed, shards)
		if err != nil {
			return err
		}
		edges = man.Edges
	}
	if len(edges) > 1 && g.NumEdges() >= 100 && slices.Contains(edges, 0) {
		return fmt.Errorf("%s cuts the %d edges into %v: a partition is empty", b.name, g.NumEdges(), edges)
	}
	return nil
}

// eqCheckStats holds a run's Stats to its backend's invariants: engine name,
// workers and replicas (a scoped wire run contacts up to all workers), and on
// a wire run out's dead workers and failovers; a
// replication factor of at least 1 on the sim and on full wire runs;
// measured traffic, peak memory and timing on full wire runs; no replica or
// cross-node traffic on a one-partition sim, and some on a full SNAPLE sim
// run whose cut replicates vertices across nodes of a 100-edge graph; a
// frontier of 0 (full) or within (0, n] (scoped), and n or the distinct
// sources scored.
func eqCheckStats(c eqCase, st Stats, g graph.View, sources []graph.VertexID, out eqOutcome) error {
	b, n, full, snaple := eqBackends[c[axBackend]], g.NumVertices(), sources == nil, c[axSystem] != eqBaseline
	wire, scored := b.kind == "dist" || b.kind == "fleet", n
	if !full {
		scored = len(slices.Compact(slices.Sorted(slices.Values(sources))))
	}
	switch {
	case st.Engine != b.kind,
		!wire && b.kind != "sim" && (st.Workers != cmp.Or(b.workers, runtime.GOMAXPROCS(0)) || st.Replicas != 0),
		wire && (st.Replicas != b.replicas || st.Workers <= 0 || st.Workers > b.workers || full && st.Workers != b.workers),
		wire && (st.WorkersDead != out.dead || st.Failovers != out.failovers),
		(b.kind == "sim" || wire && full) && st.ReplicationFactor < 1,
		wire && full && (st.ShipBytes == 0 || st.CrossBytes == 0 || st.CrossMsgs == 0 || st.MemPeakBytes == 0 ||
			st.WallSeconds <= 0 || st.EdgesPerSec <= 0),
		b.kind == "sim" && b.be.(Sim).Partitions == 1 && (st.ReplicationFactor != 1 || st.CrossBytes != 0 || st.CrossMsgs != 0),
		b.kind == "sim" && snaple && full && st.ReplicationFactor > 1 && g.NumEdges() >= 100 &&
			b.be.(Sim).Nodes > 1 && (st.CrossBytes == 0 || st.SimSeconds == 0),
		snaple && (full != (st.FrontierVertices == 0) || st.FrontierVertices > n || st.ScoredVertices != scored):
		return fmt.Errorf("stats break the %s invariants: %+v", b.kind, st)
	}
	return nil
}

// shrink moves a failing case one axis at a time toward each axis's
// simplest value, keeping every move after which the case still fails.
func (h *eqHarness) shrink(t testing.TB, c eqCase) eqCase {
	for ax := 0; ax < eqAxes; ax++ {
		for v := range c[ax] {
			d := c
			d[ax] = v
			if eqValid(d) && h.check(t, d) != nil {
				c, ax = d, -1 // moved: start over from the first axis
				break
			}
		}
	}
	return c
}

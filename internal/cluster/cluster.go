// Package cluster models the testbed of the paper's evaluation: a set of
// identical nodes with core counts, memory capacities and network links.
//
// The sim backend (engine.Sim) maps the partitions of its vertex cut onto
// cluster nodes and charges every cross-node transfer and every byte of
// vertex and gather state to a Cluster. Two things come out of that:
//
//   - a simulated cost model (compute makespan over the configured cores
//     plus transfer time over the configured bandwidth), which lets the
//     scalability experiments of Figure 5 vary "cores" far beyond the host
//     machine's;
//   - per-node memory budgets, whose exhaustion reproduces the paper's
//     BASELINE failure ("fails due to resource exhaustion", Section 5.3)
//     as a first-class error instead of an OOM kill.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// NodeSpec describes one machine type.
type NodeSpec struct {
	Name           string
	Cores          int
	MemBytes       int64
	NetBytesPerSec float64
}

// TypeI returns the paper's type-I node: 2x Intel Xeon L5420 (8 cores),
// 32 GB RAM, Gigabit Ethernet.
func TypeI() NodeSpec {
	return NodeSpec{Name: "type-I", Cores: 8, MemBytes: 32 << 30, NetBytesPerSec: 125e6}
}

// TypeII returns the paper's type-II node: 2x Intel Xeon E5-2660v2
// (20 cores), 128 GB RAM, 10-Gigabit Ethernet.
func TypeII() NodeSpec {
	return NodeSpec{Name: "type-II", Cores: 20, MemBytes: 128 << 30, NetBytesPerSec: 1.25e9}
}

// Config sizes a homogeneous cluster.
type Config struct {
	Nodes int
	Spec  NodeSpec
	// MemBudgetBytes optionally overrides Spec.MemBytes as the enforced
	// per-node memory budget (useful to provoke exhaustion at small scale).
	// Zero means "use Spec.MemBytes".
	MemBudgetBytes int64
}

// TotalCores returns the number of cores across the cluster.
func (c Config) TotalCores() int { return c.Nodes * c.Spec.Cores }

// budget returns the enforced per-node memory budget.
func (c Config) budget() int64 {
	if c.MemBudgetBytes > 0 {
		return c.MemBudgetBytes
	}
	return c.Spec.MemBytes
}

// String renders the configuration like the paper reports deployments:
// "80 cores (4 type-II nodes)".
func (c Config) String() string {
	return fmt.Sprintf("%d cores (%d %s nodes)", c.TotalCores(), c.Nodes, c.Spec.Name)
}

// ErrMemoryExhausted is returned (wrapped) when a node exceeds its memory
// budget, mirroring the resource-exhaustion failures of the paper's naive
// GraphLab implementation.
var ErrMemoryExhausted = errors.New("node memory budget exhausted")

// Cluster maps computation partitions onto nodes and accounts for their
// traffic and memory. Construct with New; methods are safe for concurrent
// use where documented.
type Cluster struct {
	cfg    Config
	nodeOf []int // partition -> node (round-robin)

	mu         sync.Mutex
	memUsed    []int64 // per node, current
	memPeak    []int64 // per node, peak
	nodeIn     []int64 // per node, bytes received (cross-node only)
	nodeOut    []int64 // per node, bytes sent (cross-node only)
	crossBytes int64
	crossMsgs  int64
}

// New builds a cluster for the given number of partitions. Partitions are
// assigned to nodes round-robin, mimicking one engine worker per core group.
func New(cfg Config, parts int) (*Cluster, error) {
	if cfg.Nodes < 1 || cfg.Spec.Cores < 1 {
		return nil, fmt.Errorf("cluster: invalid config %+v", cfg)
	}
	if parts < 1 {
		return nil, fmt.Errorf("cluster: parts=%d, need >= 1", parts)
	}
	c := &Cluster{
		cfg:     cfg,
		nodeOf:  make([]int, parts),
		memUsed: make([]int64, cfg.Nodes),
		memPeak: make([]int64, cfg.Nodes),
		nodeIn:  make([]int64, cfg.Nodes),
		nodeOut: make([]int64, cfg.Nodes),
	}
	for p := 0; p < parts; p++ {
		c.nodeOf[p] = p % cfg.Nodes
	}
	return c, nil
}

// Transfer charges a message of size bytes from partition from to partition
// to. Messages between partitions of the same node cost nothing. Safe for
// concurrent use.
func (c *Cluster) Transfer(from, to int, bytes int64) {
	nf, nt := c.nodeOf[from], c.nodeOf[to]
	if nf == nt {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crossBytes += bytes
	c.crossMsgs++
	c.nodeOut[nf] += bytes
	c.nodeIn[nt] += bytes
}

// StoreMem adjusts the resident memory of the node hosting partition p by
// delta bytes (negative to release) and enforces the node budget. On
// exhaustion the usage is still recorded and an error wrapping
// ErrMemoryExhausted is returned. Safe for concurrent use.
func (c *Cluster) StoreMem(p int, delta int64) error {
	n := c.nodeOf[p]
	c.mu.Lock()
	defer c.mu.Unlock()
	c.memUsed[n] += delta
	if c.memUsed[n] > c.memPeak[n] {
		c.memPeak[n] = c.memUsed[n]
	}
	if budget := c.cfg.budget(); c.memUsed[n] > budget {
		return fmt.Errorf("cluster: node %d uses %d of %d bytes: %w",
			n, c.memUsed[n], budget, ErrMemoryExhausted)
	}
	return nil
}

// Traffic is a point-in-time snapshot of the accounting state.
type Traffic struct {
	CrossBytes, CrossMsgs int64
	NodeIn, NodeOut       []int64
	MemPeak               []int64
}

// Snapshot copies the current accounting state. Safe for concurrent use.
func (c *Cluster) Snapshot() Traffic {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Traffic{CrossBytes: c.crossBytes, CrossMsgs: c.crossMsgs,
		NodeIn: slices.Clone(c.nodeIn), NodeOut: slices.Clone(c.nodeOut), MemPeak: slices.Clone(c.memPeak)}
}

// MaxMemPeak returns the largest per-node peak memory recorded.
func (t Traffic) MaxMemPeak() int64 {
	var peak int64
	for _, m := range t.MemPeak {
		peak = max(peak, m)
	}
	return peak
}

// NetSeconds estimates the time to drain the traffic delta between two
// snapshots: each node sends and receives concurrently at the configured
// bandwidth, and supersteps are barriers, so the slowest node bounds the
// step (bulk-synchronous cost model).
func (c *Cluster) NetSeconds(before, after Traffic) float64 {
	bw := c.cfg.Spec.NetBytesPerSec
	if bw <= 0 {
		return 0
	}
	var worst float64
	for n := range c.cfg.Nodes {
		in, out := after.NodeIn[n]-before.NodeIn[n], after.NodeOut[n]-before.NodeOut[n]
		worst = max(worst, float64(max(in, out))/bw)
	}
	return worst
}

// ComputeSeconds estimates the makespan of the given per-partition busy
// times on the cluster's cores: the classic LPT lower bound
// max(longest task, total work / total cores).
func (c *Cluster) ComputeSeconds(taskSeconds []float64) float64 {
	var sum, longest float64
	for _, s := range taskSeconds {
		sum, longest = sum+s, max(longest, s)
	}
	return max(longest, sum/float64(c.cfg.TotalCores()))
}

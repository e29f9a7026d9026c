package cluster

import (
	"errors"
	"sync"
	"testing"
)

func newTestCluster(t *testing.T, nodes, parts int, budget int64) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: nodes, Spec: TypeI(), MemBudgetBytes: budget}, parts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0, Spec: TypeI()}, 4); err == nil {
		t.Error("accepted zero nodes")
	}
	if _, err := New(Config{Nodes: 2, Spec: TypeI()}, 0); err == nil {
		t.Error("accepted zero parts")
	}
	if _, err := New(Config{Nodes: 1, Spec: NodeSpec{Cores: 0}}, 1); err == nil {
		t.Error("accepted zero cores")
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	c := newTestCluster(t, 3, 7, 0)
	// A transfer to partition 0 crosses nodes unless p shares node 0.
	for p, n := range []int{0, 1, 2, 0, 1, 2, 0} {
		before := c.Snapshot().CrossMsgs
		c.Transfer(p, 0, 1)
		if crossed := c.Snapshot().CrossMsgs > before; crossed != (n != 0) {
			t.Errorf("partition %d: crossed=%v, want it on node %d", p, crossed, n)
		}
	}
}

func TestTransferAccounting(t *testing.T) {
	c := newTestCluster(t, 2, 4, 0)
	// parts 0,2 on node 0; parts 1,3 on node 1.
	c.Transfer(0, 2, 100) // same node: free
	c.Transfer(0, 1, 40)  // cross
	c.Transfer(3, 0, 60)  // cross
	tr := c.Snapshot()
	if tr.CrossBytes != 100 || tr.CrossMsgs != 2 {
		t.Errorf("cross: %d bytes %d msgs", tr.CrossBytes, tr.CrossMsgs)
	}
	if tr.NodeOut[0] != 40 || tr.NodeIn[1] != 40 || tr.NodeOut[1] != 60 || tr.NodeIn[0] != 60 {
		t.Errorf("per-node: in=%v out=%v", tr.NodeIn, tr.NodeOut)
	}
}

func TestTransferConcurrent(t *testing.T) {
	c := newTestCluster(t, 2, 2, 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Transfer(0, 1, 1)
			}
		}()
	}
	wg.Wait()
	if tr := c.Snapshot(); tr.CrossBytes != 8000 {
		t.Errorf("CrossBytes = %d, want 8000", tr.CrossBytes)
	}
}

func TestMemoryBudget(t *testing.T) {
	c := newTestCluster(t, 2, 2, 1000)
	if err := c.StoreMem(0, 900); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	err := c.StoreMem(0, 200)
	if !errors.Is(err, ErrMemoryExhausted) {
		t.Fatalf("want ErrMemoryExhausted, got %v", err)
	}
	// Other node unaffected.
	if err := c.StoreMem(1, 999); err != nil {
		t.Fatalf("other node: %v", err)
	}
	// Release brings node 0 back under budget.
	if err := c.StoreMem(0, -200); err != nil {
		t.Fatalf("after release: %v", err)
	}
	tr := c.Snapshot()
	if tr.MemPeak[0] != 1100 {
		t.Errorf("peak = %d, want 1100", tr.MemPeak[0])
	}
	if tr.MaxMemPeak() != 1100 {
		t.Errorf("MaxMemPeak = %d", tr.MaxMemPeak())
	}
}

func TestNetSeconds(t *testing.T) {
	spec := NodeSpec{Name: "t", Cores: 4, MemBytes: 1 << 30, NetBytesPerSec: 100}
	c, err := New(Config{Nodes: 2, Spec: spec}, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Snapshot()
	c.Transfer(0, 1, 500) // node0 out 500, node1 in 500
	after := c.Snapshot()
	if got := c.NetSeconds(before, after); got != 5 {
		t.Errorf("NetSeconds = %v, want 5", got)
	}
	// No bandwidth -> free network.
	spec.NetBytesPerSec = 0
	c2, err := New(Config{Nodes: 2, Spec: spec}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b2 := c2.Snapshot()
	c2.Transfer(0, 1, 500)
	if got := c2.NetSeconds(b2, c2.Snapshot()); got != 0 {
		t.Errorf("free network: %v", got)
	}
}

func TestComputeSeconds(t *testing.T) {
	c, err := New(Config{Nodes: 2, Spec: NodeSpec{Name: "t", Cores: 2, MemBytes: 1}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 4 cores total. Work 8s spread -> 2s; longest single task 3s dominates
	// when spread is lower.
	if got := c.ComputeSeconds([]float64{2, 2, 2, 2}); got != 2 {
		t.Errorf("spread bound: %v, want 2", got)
	}
	if got := c.ComputeSeconds([]float64{3, 0.1, 0.1}); got != 3 {
		t.Errorf("longest bound: %v, want 3", got)
	}
	if got := c.ComputeSeconds(nil); got != 0 {
		t.Errorf("empty: %v", got)
	}
}

func TestSpecPresets(t *testing.T) {
	t1, t2 := TypeI(), TypeII()
	if t1.Cores != 8 || t1.MemBytes != 32<<30 {
		t.Errorf("TypeI = %+v", t1)
	}
	if t2.Cores != 20 || t2.MemBytes != 128<<30 {
		t.Errorf("TypeII = %+v", t2)
	}
	cfg := Config{Nodes: 32, Spec: t1}
	if cfg.TotalCores() != 256 {
		t.Errorf("32 type-I nodes = %d cores, want 256 (the paper's largest deployment)", cfg.TotalCores())
	}
	cfg2 := Config{Nodes: 8, Spec: t2}
	if cfg2.TotalCores() != 160 {
		t.Errorf("8 type-II nodes = %d cores, want 160", cfg2.TotalCores())
	}
}

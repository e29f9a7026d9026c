package eval

import (
	"strings"
	"testing"
)

func TestRunAlphaSweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	a, err := RunAlphaSweep(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 6 {
		t.Fatalf("want 6 alpha points, got %d", len(a.Rows))
	}
	for _, r := range a.Rows {
		if r.Recall < 0 || r.Recall > 1 {
			t.Errorf("alpha=%v recall=%v out of range", r.Alpha, r.Recall)
		}
	}
	var sb strings.Builder
	a.Fprint(&sb)
	if !strings.Contains(sb.String(), "alpha") {
		t.Error("render missing header")
	}
}

func TestRunPartitionAblationSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p, err := RunPartitionAblation(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rows) != 3 {
		t.Fatalf("want 3 strategies, got %d", len(p.Rows))
	}
	byName := map[string]PartitionRow{}
	for _, r := range p.Rows {
		byName[r.Strategy] = r
		if r.ReplicationFactor < 1 {
			t.Errorf("%s: RF %v < 1", r.Strategy, r.ReplicationFactor)
		}
	}
	// The answer must not depend on placement.
	first := p.Rows[0].Recall
	for _, r := range p.Rows {
		if r.Recall != first {
			t.Errorf("recall varies with partitioning: %v vs %v", r.Recall, first)
		}
	}
	// Greedy cuts fewer vertices than random edge hashing on clustered
	// graphs, and lower RF should not move more bytes.
	if byName["greedy"].ReplicationFactor >= byName["hash-edge"].ReplicationFactor {
		t.Errorf("greedy RF %.2f not below hash-edge RF %.2f",
			byName["greedy"].ReplicationFactor, byName["hash-edge"].ReplicationFactor)
	}
}

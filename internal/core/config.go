package core

import (
	"fmt"
	"slices"

	"snaple/internal/graph"
)

// SelectionPolicy chooses which k_local neighbours each vertex keeps as path
// relays at the end of step 2 (Section 5.6 compares the three).
type SelectionPolicy int

const (
	// SelectMax keeps the k_local most similar neighbours (Γmax, the
	// paper's default and best performer).
	SelectMax SelectionPolicy = iota
	// SelectMin keeps the k_local least similar neighbours (Γmin).
	SelectMin
	// SelectRnd keeps k_local neighbours drawn uniformly (Γrnd),
	// deterministically keyed by the run seed.
	SelectRnd
)

// String implements fmt.Stringer.
func (p SelectionPolicy) String() string {
	switch p {
	case SelectMax:
		return "max"
	case SelectMin:
		return "min"
	case SelectRnd:
		return "rnd"
	default:
		return fmt.Sprintf("SelectionPolicy(%d)", int(p))
	}
}

// PolicyByName maps the CLI/API spelling of a selection policy ("max",
// "min", "rnd"; "" defaults to "max") onto its SelectionPolicy. It is the
// single parser shared by the public Options, cmd/snaple-serve and every
// other string-typed entry point.
func PolicyByName(name string) (SelectionPolicy, error) {
	switch name {
	case "", "max":
		return SelectMax, nil
	case "min":
		return SelectMin, nil
	case "rnd":
		return SelectRnd, nil
	default:
		return 0, fmt.Errorf("core: unknown policy %q (max|min|rnd)", name)
	}
}

// Unlimited disables a sampling parameter (the paper's ∞ rows in Table 5).
const Unlimited = 0

// Config parameterises a SNAPLE prediction run (Algorithm 2's inputs).
type Config struct {
	// Score is the scoring configuration (Table 3). Required.
	Score ScoreSpec
	// K is the number of predictions returned per vertex (default 5, the
	// paper's fixed choice outside Figure 9).
	K int
	// KLocal bounds the per-vertex neighbour sample used as path relays;
	// Unlimited (0) disables sampling.
	KLocal int
	// ThrGamma is the neighbourhood truncation threshold thrΓ; Unlimited
	// (0) disables truncation. The paper defaults to 200.
	ThrGamma int
	// Policy selects how the KLocal relays are chosen (default SelectMax).
	Policy SelectionPolicy
	// Paths is the path length scored. SNAPLE scores 2-hop paths only, so
	// the one accepted value is 2 (0 means the same); any other is refused.
	Paths int
	// Seed drives truncation and the Γrnd policy.
	Seed uint64
	// Sources optionally scopes the run to a query frontier: when
	// non-empty, only these vertices receive predictions and only the
	// closure their step programs read (see NewFrontier) is computed — the
	// online per-user shape served by cmd/snaple-serve. Empty means a full
	// run over every vertex. Duplicates are deduplicated; a source outside
	// the graph's vertex range fails the run. Scoped predictions are
	// bit-identical to the full run's, filtered to the sources, on every
	// backend.
	Sources []graph.VertexID
}

// withDefaults fills zero fields that have non-zero defaults.
func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 5
	}
	if c.Paths == 0 {
		c.Paths = 2
	}
	return c
}

// Normalized returns the config with defaults filled, plus any validation
// error. Callers that do expensive setup before running (e.g. partitioning
// a graph) use it to fail fast on invalid configs.
func (c Config) Normalized() (Config, error) {
	c = c.withDefaults()
	return c, c.Validate()
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Score.Validate(); err != nil {
		return err
	}
	switch {
	case c.K < 1:
		return fmt.Errorf("core: K=%d, need >= 1", c.K)
	case c.KLocal < 0:
		return fmt.Errorf("core: KLocal=%d, need >= 0", c.KLocal)
	case c.ThrGamma < 0:
		return fmt.Errorf("core: ThrGamma=%d, need >= 0", c.ThrGamma)
	case c.Policy != SelectMax && c.Policy != SelectMin && c.Policy != SelectRnd:
		return fmt.Errorf("core: unknown selection policy %d", int(c.Policy))
	case c.Paths != 0 && c.Paths != 2:
		return fmt.Errorf("core: Paths=%d, SNAPLE scores 2-hop paths only", c.Paths)
	}
	return nil
}

// Prediction is one recommended edge target with its score.
type Prediction struct {
	Vertex graph.VertexID
	Score  float64
}

// Predictions holds the per-vertex prediction lists, indexed by vertex ID;
// vertices without predictions have nil entries.
type Predictions [][]Prediction

// ScopedPredictions is a run's result held as rows: on a query-scoped run
// the deduplicated sources in ascending order, each paired with its
// prediction row, so the result costs O(sources) however large the graph;
// on a full run nil Vertices and one row per vertex, indexed by vertex. A
// vertex without predictions has a nil row.
type ScopedPredictions struct {
	Vertices []graph.VertexID // nil on a full run
	Rows     [][]Prediction   // Rows[i] belongs to Vertices[i], or to vertex i on a full run
}

// Row returns v's prediction row, or nil when v has none or was not a
// source of the run.
func (p ScopedPredictions) Row(v graph.VertexID) []Prediction {
	if p.Vertices == nil {
		if int(v) < len(p.Rows) {
			return p.Rows[v]
		}
		return nil
	}
	if i, ok := slices.BinarySearch(p.Vertices, v); ok {
		return p.Rows[i]
	}
	return nil
}

// Dense returns the rows as the |V|-long Predictions table the Backend
// contract promises: a full run's rows as they are, a scoped run's
// scattered over n slice headers (n·24 B) whatever the closure's size.
func (p ScopedPredictions) Dense(n int) Predictions {
	if p.Vertices == nil {
		return p.Rows
	}
	out := make(Predictions, n)
	for i, v := range p.Vertices {
		out[v] = p.Rows[i]
	}
	return out
}

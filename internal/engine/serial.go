package engine

import (
	"snaple/internal/core"
	"snaple/internal/graph"
)

// Serial is the single-threaded reference backend: a thin adapter over
// core.ReferenceSnaple. It is the slowest substrate and the semantic anchor
// — the equivalence tests hold every other backend to its exact output.
type Serial struct{}

// Name implements Backend.
func (Serial) Name() string { return "serial" }

// Predict implements Backend.
func (Serial) Predict(g graph.View, cfg core.Config) (core.Predictions, Stats, error) {
	m := startMeter()
	pred, err := core.ReferenceSnaple(g, cfg)
	st := Stats{Engine: "serial", Workers: 1, ScoredVertices: g.NumVertices()}
	m.stop(&st, g)
	if err == nil {
		// The reference computed the same closure internally; recomputing it
		// for the report costs one pass over the closure's adjacency.
		if f, ferr := core.NewFrontier(g, cfg); ferr == nil && f != nil {
			st.FrontierVertices = f.Size()
			st.ScoredVertices = f.Pred.Len()
		}
	}
	return pred, st, err
}

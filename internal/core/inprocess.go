package core

import (
	"slices"

	"snaple/internal/graph"
)

// The in-process half of DistPartition, for a driver that runs every
// partition of a cut in one address space (engine.Sim): the partials of a
// superstep stay where they were gathered until their masters fold them, and
// everything that would cross a node is priced the way the paper's cost
// model ships it. A fleet worker uses none of this; it streams its partials
// (GatherStream) and its refreshes instead.

// heldPartials is one superstep's gather output held for the masters: the
// contributing slots' payloads back to back in the step's column, slot s's
// ending at end[s] (and starting where slot s-1's ends). A slot whose range
// is empty contributed nothing. The applies never retain what they fold, so
// the columns are reused from step to step.
type heldPartials struct {
	end   []int
	ids   []graph.VertexID
	sims  []VertexSim
	cands []PathCand
	lists []nbrList
	// The folding master's scratch: the partials to apply, BASELINE's lists
	// to apply, and the candidate ids candBytes counts.
	parts     []DistPartial
	foldLists []nbrList
	zs        []graph.VertexID
}

// GatherHeld runs step's gather over every slot and holds each slot's
// partial for its master's FoldHeld. meter is handed every contributing
// edge's gather bytes as the edge is gathered, and once with 0 before each
// slot; a false return stops the gather — the driver's memory budget ran
// out, and the step is abandoned.
func (p *DistPartition) GatherHeld(step DistStep, meter func(bytes int64) bool) {
	p.meter = meter
	defer func() { p.meter = nil }()
	h := &p.held
	h.end = slices.Grow(h.end[:0], len(p.runs))[:len(p.runs)]
	h.ids, h.sims, h.cands, h.lists = h.ids[:0], h.sims[:0], h.cands[:0], h.lists[:0]
	var dp DistPartial
	for s := range p.runs {
		if !meter(0) {
			return
		}
		if step.inProcess() {
			p.gatherLists(step, int32(s))
		} else if p.GatherVertex(step, int32(s), &dp) {
			h.ids = append(h.ids, dp.Nbrs...)
			h.sims = append(h.sims, dp.Sims...)
			h.cands = append(h.cands, dp.Cands...)
		}
		h.end[s] = len(h.ids) + len(h.sims) + len(h.cands) + len(h.lists) // only step's column grows
	}
}

// FoldHeld runs step's sum+apply for master slot s over the partials v's
// replicas hold: from[hosts[k]] holds v at slot slots[k], hosts ascending, as
// partition.Cut.Replicas lists them. Each partial held on another partition
// is shipped first: ship gets its host and its price. Like Apply it runs
// with no partial at all, clearing the step's output field.
func (p *DistPartition) FoldHeld(step DistStep, s int32, from []*DistPartition, hosts, slots []int32, ship func(host int32, bytes int64)) error {
	h := &p.held
	h.parts, h.foldLists = h.parts[:0], h.foldLists[:0]
	for k, host := range hosts {
		q := &from[host].held
		lo, hi := 0, q.end[slots[k]]
		if slots[k] > 0 {
			lo = q.end[slots[k]-1]
		}
		if lo == hi {
			continue
		}
		if from[host] != p {
			ship(host, p.heldBytes(step, q, lo, hi))
		}
		switch step {
		case DistTruncate:
			h.parts = append(h.parts, DistPartial{Nbrs: q.ids[lo:hi]})
		case DistRelays:
			h.parts = append(h.parts, DistPartial{Sims: q.sims[lo:hi]})
		case DistReplicate, DistJaccard:
			h.foldLists = append(h.foldLists, q.lists[lo:hi]...)
		default:
			h.parts = append(h.parts, DistPartial{Cands: q.cands[lo:hi]})
		}
	}
	if step.inProcess() {
		p.applyLists(step, s, h.foldLists)
		return nil
	}
	return p.Apply(step, s, h.parts)
}

// CopyState refreshes mirror slot s from the master copy at from's slot fs.
func (p *DistPartition) CopyState(s int32, from *DistPartition, fs int32) {
	p.data[s] = from.data[fs]
	if p.two != nil {
		p.two[s] = from.two[fs]
	}
}

// VertexBytes prices slot s's replica for synchronisation and memory
// accounting: 4 B per neighbour ID, 12 B per (id, float64) similarity entry,
// 12 B per prediction entry, BASELINE's replicated lists, plus a fixed
// header.
func (p *DistPartition) VertexBytes(s int32) int64 {
	d := &p.data[s]
	n := 24 + 4*int64(len(d.Nbrs)) + 12*int64(len(d.Sims)) + 12*int64(len(d.Pred))
	if p.two != nil {
		n += nbrListsBytes(p.two[s])
	}
	return n
}

// price hands one edge's gather bytes to the in-process driver's meter; a
// false return stops the gather. Always true on a fleet worker.
func (p *DistPartition) price(bytes int64) bool { return p.meter == nil || p.meter(bytes) }

// heldBytes prices q's held partial [lo, hi) the way the paper's
// implementation ships it: 4 B per neighbour ID, 12 B per similarity entry,
// BASELINE's lists by nbrListsBytes and path lists by candBytes.
func (p *DistPartition) heldBytes(step DistStep, q *heldPartials, lo, hi int) int64 {
	switch step {
	case DistTruncate:
		return 4 * int64(hi-lo)
	case DistRelays:
		return 12 * int64(hi-lo)
	case DistReplicate, DistJaccard:
		return nbrListsBytes(q.lists[lo:hi])
	default:
		return p.candBytes(q.cands[lo:hi])
	}
}

// candBytes prices a step-3 path list: one (z, σ, n) triplet, 16 B, per
// distinct candidate, since ⊕pre could fold each group before transmission
// (the in-memory per-path list is a determinism device; see
// Aggregator.FoldPaths).
func (p *DistPartition) candBytes(cands []PathCand) int64 {
	zs := p.held.zs[:0]
	for _, c := range cands {
		zs = append(zs, c.Z)
	}
	slices.Sort(zs)
	p.held.zs = zs
	return 16 * int64(len(slices.Compact(zs)))
}

package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"snaple/internal/graph"
	"snaple/internal/randx"
)

// oracleRelays is the k_local selection by brute force: rank every candidate
// (Γmax by similarity, Γmin by negated similarity, Γrnd by the (seed, u, v)
// hash), sort by rank descending then id ascending, keep the first k_local
// and return them sorted by id.
func oracleRelays(cfg Config, u graph.VertexID, cands []VertexSim) []VertexSim {
	type ranked struct {
		c    VertexSim
		rank float64
	}
	rs := make([]ranked, len(cands))
	for i, c := range cands {
		rank := c.Sim
		switch cfg.Policy {
		case SelectMin:
			rank = -c.Sim
		case SelectRnd:
			// The salt is spelled out, not shared: a changed Γrnd draw changes
			// every Γrnd result and should fail here.
			rank = randx.Float64(cfg.Seed^0x51AF1E02, uint64(u), uint64(c.V))
		}
		rs[i] = ranked{c, rank}
	}
	slices.SortFunc(rs, func(a, b ranked) int {
		if a.rank != b.rank {
			return cmp.Compare(b.rank, a.rank)
		}
		return cmp.Compare(a.c.V, b.c.V)
	})
	if cfg.KLocal != Unlimited && len(rs) > cfg.KLocal {
		rs = rs[:cfg.KLocal]
	}
	out := make([]VertexSim, len(rs))
	for i, r := range rs {
		out[i] = r.c
	}
	slices.SortFunc(out, func(a, b VertexSim) int { return cmp.Compare(a.V, b.V) })
	return out
}

// TestSelectRelaysMatchesOracle holds the one k_local selection function —
// behind RelaysFill on Local and Serial and behind the step-2 apply on sim
// and the wire worker — to the brute-force oracle: random candidate rows,
// some with every score forced equal to a few values, k_local at 1, len−1,
// len, len+1 and Unlimited, all three policies. The apply's shuffled input
// must come out as the same V-sorted row.
func TestSelectRelaysMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(24)
		ids := rng.Perm(200)[:n]
		slices.Sort(ids)
		ties := trial%2 == 0
		cands := make([]VertexSim, n)
		for i, v := range ids {
			sim := rng.Float64()
			if ties {
				sim = float64(rng.Intn(3)) / 4
			}
			cands[i] = VertexSim{V: graph.VertexID(v), Sim: sim}
		}
		u := graph.VertexID(rng.Intn(200))
		for _, kLocal := range []int{1, n - 1, n, n + 1, Unlimited} {
			for _, policy := range []SelectionPolicy{SelectMax, SelectMin, SelectRnd} {
				cfg := Config{KLocal: kLocal, Policy: policy, Seed: uint64(trial)}
				want := oracleRelays(cfg, u, cands)
				label := fmt.Sprintf("trial %d (ties=%v) n=%d kLocal=%d policy=%v", trial, ties, n, kLocal, policy)

				var s Scratch
				got := make([]VertexSim, relayCount(kLocal, n))
				s.selectRelays(&cfg, u, cands, got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: selectRelays = %v, oracle %v", label, got, want)
				}

				shuffled := slices.Clone(cands)
				rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				if got := s.applyRelays(&cfg, u, shuffled); !slices.Equal(got, want) {
					t.Fatalf("%s: applyRelays(shuffled) = %v, oracle %v", label, got, want)
				}
			}
		}
	}
}

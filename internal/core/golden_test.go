package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// predictionsHash is an FNV-1a digest of a full prediction table: every
// vertex's row length, then each prediction's vertex and score bits.
func predictionsHash(p Predictions) uint64 {
	h := fnv.New64a()
	var b [12]byte
	for u, row := range p {
		binary.LittleEndian.PutUint32(b[:4], uint32(u))
		binary.LittleEndian.PutUint32(b[4:8], uint32(len(row)))
		h.Write(b[:8])
		for _, pr := range row {
			binary.LittleEndian.PutUint32(b[:4], uint32(pr.Vertex))
			binary.LittleEndian.PutUint64(b[4:], math.Float64bits(pr.Score))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// goldenPredictions holds the digest of ReferenceSnaple's full output per
// configuration, keyed "score/paths=P/policy/bound", plus the BASELINE
// oracle's, all on allocTestGraph(120). The values were recorded before
// step 3 became a merge of Z-ascending runs: a kernel change that moves one
// bit of one score shows here, even though every scheduler and the serial
// oracle would still agree with each other.
var goldenPredictions = map[string]uint64{
	"linearSum/paths=2/max/bound":      0x6b48e6ca2bd5420a,
	"linearSum/paths=2/max/unlimited":  0x572fdd4e7b600df2,
	"linearSum/paths=2/min/bound":      0x6dadcd093a8ff22c,
	"linearSum/paths=2/min/unlimited":  0x572fdd4e7b600df2,
	"linearSum/paths=2/rnd/bound":      0x723d9e6685c25452,
	"linearSum/paths=2/rnd/unlimited":  0x572fdd4e7b600df2,
	"euclSum/paths=2/max/bound":        0x7092232d42f429da,
	"euclSum/paths=2/max/unlimited":    0x5b95fd01bd93bc2f,
	"euclSum/paths=2/min/bound":        0xb2c14d9293a1b00a,
	"euclSum/paths=2/min/unlimited":    0x5b95fd01bd93bc2f,
	"euclSum/paths=2/rnd/bound":        0xf14a16a7c26a7c9d,
	"euclSum/paths=2/rnd/unlimited":    0x5b95fd01bd93bc2f,
	"geomSum/paths=2/max/bound":        0xb7c9f701cb1fbdaf,
	"geomSum/paths=2/max/unlimited":    0x66840d398b143fd5,
	"geomSum/paths=2/min/bound":        0x7e4cf6b3520394f7,
	"geomSum/paths=2/min/unlimited":    0x66840d398b143fd5,
	"geomSum/paths=2/rnd/bound":        0xd1311e3787dd5cb0,
	"geomSum/paths=2/rnd/unlimited":    0x66840d398b143fd5,
	"PPR/paths=2/max/bound":            0x28536f37df0883c3,
	"PPR/paths=2/max/unlimited":        0xf8463fd60012bc5c,
	"PPR/paths=2/min/bound":            0x6a4076891bab168f,
	"PPR/paths=2/min/unlimited":        0xf8463fd60012bc5c,
	"PPR/paths=2/rnd/bound":            0xcdc1007494902fdc,
	"PPR/paths=2/rnd/unlimited":        0xf8463fd60012bc5c,
	"counter/paths=2/max/bound":        0x11f9d20f376dc01b,
	"counter/paths=2/max/unlimited":    0xa8b7036a3c2798ba,
	"counter/paths=2/min/bound":        0xd11ae9a8147f5ec9,
	"counter/paths=2/min/unlimited":    0xa8b7036a3c2798ba,
	"counter/paths=2/rnd/bound":        0xc2b03bf5bebcc334,
	"counter/paths=2/rnd/unlimited":    0xa8b7036a3c2798ba,
	"linearMean/paths=2/max/bound":     0x6e752b71a7e7fc57,
	"linearMean/paths=2/max/unlimited": 0x8c8825fe662382ed,
	"linearMean/paths=2/min/bound":     0x9e6b9aefb0b7c597,
	"linearMean/paths=2/min/unlimited": 0x8c8825fe662382ed,
	"linearMean/paths=2/rnd/bound":     0x387c810da95f5d36,
	"linearMean/paths=2/rnd/unlimited": 0x8c8825fe662382ed,
	"euclMean/paths=2/max/bound":       0x8202f4e0194bc290,
	"euclMean/paths=2/max/unlimited":   0xa3b9691b75fcde34,
	"euclMean/paths=2/min/bound":       0x155c8d93032bb4b7,
	"euclMean/paths=2/min/unlimited":   0xa3b9691b75fcde34,
	"euclMean/paths=2/rnd/bound":       0xc7967b3a74cdfe0c,
	"euclMean/paths=2/rnd/unlimited":   0xa3b9691b75fcde34,
	"geomMean/paths=2/max/bound":       0x7fe6cda07b562a69,
	"geomMean/paths=2/max/unlimited":   0xcacf6cb0d2801e6d,
	"geomMean/paths=2/min/bound":       0xeec78e88fad8ce1,
	"geomMean/paths=2/min/unlimited":   0xcacf6cb0d2801e6d,
	"geomMean/paths=2/rnd/bound":       0x5c7621ed6ee76e02,
	"geomMean/paths=2/rnd/unlimited":   0xcacf6cb0d2801e6d,
	"linearGeom/paths=2/max/bound":     0x8121ba83ece5caf8,
	"linearGeom/paths=2/max/unlimited": 0x38f13200cafe483e,
	"linearGeom/paths=2/min/bound":     0x3f3b9a6877cee6ad,
	"linearGeom/paths=2/min/unlimited": 0x38f13200cafe483e,
	"linearGeom/paths=2/rnd/bound":     0x2696786e751b1899,
	"linearGeom/paths=2/rnd/unlimited": 0x38f13200cafe483e,
	"euclGeom/paths=2/max/bound":       0xf96435ee708fa2c3,
	"euclGeom/paths=2/max/unlimited":   0x888614f7ce7d6ca6,
	"euclGeom/paths=2/min/bound":       0x7f3b4804098ef7af,
	"euclGeom/paths=2/min/unlimited":   0x888614f7ce7d6ca6,
	"euclGeom/paths=2/rnd/bound":       0xeed199e921b6706f,
	"euclGeom/paths=2/rnd/unlimited":   0x888614f7ce7d6ca6,
	"geomGeom/paths=2/max/bound":       0x78ed1dff2ebec8df,
	"geomGeom/paths=2/max/unlimited":   0x65b90f38273a1a13,
	"geomGeom/paths=2/min/bound":       0xfa9145bb9662eb7c,
	"geomGeom/paths=2/min/unlimited":   0x65b90f38273a1a13,
	"geomGeom/paths=2/rnd/bound":       0x4fe50e85e8f1ce2a,
	"geomGeom/paths=2/rnd/unlimited":   0x65b90f38273a1a13,
	"baseline":                         0xaaeed11bb1ba362e,
}

// TestPredictionsGolden holds the step kernels to outputs recorded
// independently of them: all 11 scores, the three relay policies, with thrΓ and k_local binding on the graph's hubs and with both
// unlimited.
func TestPredictionsGolden(t *testing.T) {
	g := allocTestGraph(t, 120)
	check := func(key string, p Predictions) {
		t.Helper()
		got := predictionsHash(p)
		if want, ok := goldenPredictions[key]; !ok || got != want {
			t.Errorf("%q: %#x, want %#x", key, got, want)
		}
	}
	for _, name := range ScoreNames() {
		for _, policy := range []SelectionPolicy{SelectMax, SelectMin, SelectRnd} {
			for _, bound := range []string{"bound", "unlimited"} {
				cfg := Config{Score: mustScore(t, name), K: 5, Policy: policy, Seed: 9}
				if bound == "bound" {
					cfg.ThrGamma, cfg.KLocal = 10, 5
				}
				p, err := ReferenceSnaple(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s/paths=2/%v/%s", name, policy, bound), p)
			}
		}
	}
	p, err := ReferenceBaseline(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	check("baseline", p)
}

// TestTrainSupervisedGolden pins the trained model bit for bit to values
// recorded before candidateFeatures became runSteps12 plus its feature loop:
// same relays, same paths, same summation order.
func TestTrainSupervisedGolden(t *testing.T) {
	g := communityGraph(t, 500, 91)
	cases := []struct {
		cfg     SupervisedConfig
		weights [numPathFeatures]uint64
		bias    uint64
	}{
		{
			SupervisedConfig{Seed: 5, Epochs: 50},
			[numPathFeatures]uint64{0x3fbdadaf093e72e9, 0x3f9211060dd7998a, 0x3fc150116d92b253,
				0xbfcdf691fc5f26d0, 0xbfac176231558e8c, 0xbfd932b8f8483245},
			0xbff5c0edf9f4804a,
		},
		{
			// Truncation and k_local sampling both bind.
			SupervisedConfig{Seed: 7, Epochs: 40, KLocal: 5, ThrGamma: 8},
			[numPathFeatures]uint64{0xbfb92bcae7846169, 0xbfb2c8ff33b314d1, 0x3fa34fe0a7723b2f,
				0xbfd108f9626cdbc8, 0xbfcf8bde455f6ba1, 0xbfd24146149fa6b7},
			0xbff312e808fb1574,
		},
	}
	for _, tc := range cases {
		m, err := TrainSupervised(g, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range m.Weights {
			if got := math.Float64bits(w); got != tc.weights[i] {
				t.Errorf("%+v: weight %d = %#x, want %#x", tc.cfg, i, got, tc.weights[i])
			}
		}
		if got := math.Float64bits(m.Bias); got != tc.bias {
			t.Errorf("%+v: bias = %#x, want %#x", tc.cfg, got, tc.bias)
		}
	}
}

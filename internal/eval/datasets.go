package eval

import (
	"fmt"

	"snaple/internal/gen"
	"snaple/internal/graph"
)

// Dataset describes a synthetic analog of one of the paper's five public
// graphs (Table 4). The real datasets are unavailable offline and the
// largest (twitter-rv, 1.4B edges) exceeds this environment anyway, so each
// analog is generated by the community/homophily model with parameters
// matched to the original's character: directedness, relative edge count
// ordering (gowalla < pokec < livejournal < orkut < twitter) and relative
// density (orkut densest, gowalla sparsest).
//
// What the substitution keeps, parameter by parameter:
//   - Gamma, MinDeg and MaxDeg give heavy-tailed out-degrees, so hub
//     neighbourhoods exceed thrΓ and the relays exceed k_local: the sampling
//     of Algorithm 2 binds as on the crawls, BASELINE's per-vertex state
//     grows with the squared degrees, and a vertex cut replicates the hubs.
//   - Communities and the generator's homophily and triangle-closure
//     fractions (PLocal, PClose in Generate) put future links among 2-hop
//     neighbours (Section 2.2), the signal every score ranks, so recall
//     responds to thrΓ, k_local, the policy and the score.
//   - N and MinDeg keep Table 4's order of size and density, and Symmetric
//     keeps gowalla and orkut undirected: the comparisons across datasets
//     (time growing with edges, BASELINE running out of memory first on
//     the densest and largest) keep their direction.
//
// What it does not keep: absolute scale (2k–24k vertices at Scale = 1,
// against 0.2M–41M), hence absolute times, memory and recall values, which
// are only compared as trends and ratios; and the crawls' own structure
// beyond degree and community — their reciprocity, degree correlations and
// the growth history behind real held-out links.
type Dataset struct {
	// Name matches the paper's dataset name.
	Name string
	// Domain is the paper's domain column (Table 4).
	Domain string
	// PaperVertices and PaperEdges record the original sizes, for reports.
	PaperVertices, PaperEdges string
	// Symmetric marks originally-undirected graphs (gowalla, orkut), which
	// the paper converts to directed by duplicating edges.
	Symmetric bool
	// Base generator parameters at Scale = 1.
	N           int
	Communities int
	MinDeg      int
	MaxDeg      int
	Gamma       float64
}

// datasets is ordered by original edge count, the paper's Table 4 order.
var datasets = []Dataset{
	{
		Name: "gowalla", Domain: "social network",
		PaperVertices: "196,591", PaperEdges: "0.95M",
		Symmetric: true, N: 2000, Communities: 24, MinDeg: 2, MaxDeg: 120, Gamma: 2.4,
	},
	{
		Name: "pokec", Domain: "social network",
		PaperVertices: "1.6M", PaperEdges: "30.6M",
		N: 6000, Communities: 40, MinDeg: 4, MaxDeg: 300, Gamma: 2.3,
	},
	{
		Name: "livejournal", Domain: "co-authorship",
		PaperVertices: "4.8M", PaperEdges: "68.9M",
		N: 12000, Communities: 60, MinDeg: 3, MaxDeg: 400, Gamma: 2.3,
	},
	{
		Name: "orkut", Domain: "social network",
		PaperVertices: "3M", PaperEdges: "223M",
		Symmetric: true, N: 6000, Communities: 30, MinDeg: 12, MaxDeg: 500, Gamma: 2.2,
	},
	{
		Name: "twitter-rv", Domain: "microblogging",
		PaperVertices: "41M", PaperEdges: "1.4B",
		N: 24000, Communities: 80, MinDeg: 7, MaxDeg: 1200, Gamma: 2.1,
	},
}

// DatasetNames lists the analog names in Table 4 order.
func DatasetNames() []string {
	out := make([]string, len(datasets))
	for i, d := range datasets {
		out[i] = d.Name
	}
	return out
}

// DatasetByName looks up an analog.
func DatasetByName(name string) (Dataset, error) {
	for _, d := range datasets {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("eval: unknown dataset %q (known: %v)", name, DatasetNames())
}

// Generate builds the analog at the given scale (vertex-count multiplier;
// 1.0 is the harness default, sized for a small CI machine) with the given
// seed. Scales below ~0.05 are clamped to keep the graph connected enough
// to evaluate.
func (d Dataset) Generate(scale float64, seed uint64) (*graph.Digraph, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("eval: scale=%v, need > 0", scale)
	}
	n := int(float64(d.N) * scale)
	if n < 200 {
		n = 200
	}
	comm := d.Communities
	if scaled := int(float64(comm) * scale); scaled >= 4 && scaled < comm {
		comm = scaled
	}
	maxDeg := d.MaxDeg
	if maxDeg >= n {
		maxDeg = n - 1
	}
	cfg := gen.CommunityConfig{
		N:           n,
		Communities: comm,
		MinDeg:      d.MinDeg,
		MaxDeg:      maxDeg,
		Gamma:       d.Gamma,
		PLocal:      0.5,
		PClose:      0.4,
		Symmetric:   d.Symmetric,
	}
	g, err := gen.Community(cfg, seed^uint64(len(d.Name))<<8)
	if err != nil {
		return nil, fmt.Errorf("eval: generate %s: %w", d.Name, err)
	}
	return g, nil
}

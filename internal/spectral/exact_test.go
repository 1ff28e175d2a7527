package spectral

import (
	"errors"
	"math"
	"testing"

	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/xrand"
)

// exactConductanceOracle is the direct enumeration ExactConductance replaced:
// every subset with vertex n-1 outside, each scored directly by
// CutConductance.
func exactConductanceOracle(g *graph.Graph) (float64, error) {
	n := g.N()
	if n > exactLimit {
		return 0, ErrTooLarge
	}
	if g.M() == 0 {
		return 0, ErrNoEdges
	}
	best := math.Inf(1)
	member := make([]bool, n)
	for mask := 1; mask < 1<<uint(n-1); mask++ {
		for v := 0; v < n-1; v++ {
			member[v] = mask&(1<<uint(v)) != 0
		}
		phi, err := CutConductance(g, member)
		if err == nil && phi < best {
			best = phi
		}
	}
	if math.IsInf(best, 1) {
		return 0, nil
	}
	return best, nil
}

// oracleFamily returns a seeded family of graphs on 2…14 vertices:
// disconnected graphs, graphs with isolated vertices (0, which the Gray code
// flips most often, and n-1, which the enumeration keeps outside S), stars,
// paths, a clique plus pendant and G(n, p).
func oracleFamily(seed uint64) []*graph.Graph {
	rng := xrand.New(seed)
	var gs []*graph.Graph
	for n := 2; n <= 14; n++ {
		split := graph.NewBuilder(n) // a path and a clique side by side
		for v := 1; v < n/2; v++ {
			split.AddEdge(v-1, v)
		}
		for u := n / 2; u < n; u++ {
			for v := u + 1; v < n; v++ {
				split.AddEdge(u, v)
			}
		}
		inner := gen.ErdosRenyi(n-2, 0.5, rng)
		isolated := graph.NewBuilder(n)
		for _, e := range inner.Edges() {
			isolated.AddEdge(e.U+1, e.V+1)
		}
		gs = append(gs, split.Build(), isolated.Build(),
			gen.Star(n, 0), gen.Star(n, n/2), gen.Star(n, n-1),
			gen.Path(n), gen.CliqueWithPendant(n-1),
			gen.ErdosRenyi(n, 0.3, rng), gen.ErdosRenyi(n, 0.7, rng))
	}
	return gs
}

// e8Instances returns the three H_{k,Δ} graphs E8 measures exactly at the
// default seed 20200424 (n = 18, 20, 22).
func e8Instances(t *testing.T) []*graph.Graph {
	t.Helper()
	var gs []*graph.Graph
	for i, p := range []struct{ n, sizeA, k, delta int }{{18, 5, 1, 2}, {20, 5, 2, 2}, {22, 6, 2, 3}} {
		var a, b []int
		for v := 0; v < p.n; v++ {
			if v < p.sizeA {
				a = append(a, v)
			} else {
				b = append(b, v)
			}
		}
		h, err := gen.NewHkd(gen.HkdParams{K: p.k, Delta: p.delta, A: a, B: b}, xrand.New(20200424).Split(uint64(800+i)))
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, h.Graph)
	}
	return gs
}

func TestExactConductanceMatchesOracle(t *testing.T) {
	hs := e8Instances(t)
	if testing.Short() {
		hs = hs[:2] // the n = 22 oracle dominates a -race run
	}
	gs := append(oracleFamily(31), hs...)
	for _, g := range gs {
		got, err := ExactConductance(g)
		want, wantErr := exactConductanceOracle(g)
		if !errors.Is(err, wantErr) || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("n=%d edges=%v: Φ = (%v, %v), oracle (%v, %v)", g.N(), g.Edges(), got, err, want, wantErr)
		}
	}
}

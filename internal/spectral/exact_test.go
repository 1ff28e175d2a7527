package spectral

import (
	"errors"
	"math"
	"testing"

	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/xrand"
)

// exactConductanceOracle is the direct enumeration ExactConductance is
// checked against: every subset with vertex n-1 outside, each scored
// directly by CutConductance.
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
// disconnected graphs, graphs whose isolated vertices are 0 and n-1 (the
// vertex the oracle keeps outside S), stars, paths, a clique plus pendant,
// G(n, p), graphs with a volume-balanced cut (pendantTriangle) and
// twin-rich graphs (complete bipartite and cocktail-party graphs), whose
// twins the search may not split freely.
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
		for _, e := range inner.AppendEdges(nil) {
			isolated.AddEdge(e.U+1, e.V+1)
		}
		gs = append(gs, split.Build(), isolated.Build(),
			gen.Star(n, 0), gen.Star(n, n/2), gen.Star(n, n-1),
			gen.Path(n), gen.CliqueWithPendant(n-1),
			gen.ErdosRenyi(n, 0.3, rng), gen.ErdosRenyi(n, 0.7, rng),
			gen.CompleteBipartite(n/2, n-n/2), gen.CompleteBipartite(n/3+1, n-n/3-1),
			cocktailParty(n))
		if n >= 6 {
			gs = append(gs, pendantTriangle(n, false), pendantTriangle(n, true))
		}
	}
	return gs
}

// cocktailParty is K_n minus the matching {2i, 2i+1}; for odd n, vertex n-1
// stays adjacent to all others.
func cocktailParty(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := range n {
		for v := u + 1; v < n; v++ {
			if v != u^1 {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// complementOfCycle is the complement of C_n. At n = 22 it is one of
// ExactConductance's slowest inputs: it has no twins, and every cut is dense.
func complementOfCycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := range n {
		for v := u + 2; v < n; v++ {
			if u != 0 || v != n-1 {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// pendantTriangle is a triangle h, c, w with one pendant leaf on c and
// n-4 >= 2 on h. Its cut between c with all n-3 leaves and {h, w} is
// volume-balanced with sides of unequal size, the case where ρ must score
// both sides; the diligence tests use the same graphs. wLast labels w as
// n-1, so n-1 lies on the smaller side; otherwise it is a leaf of h.
func pendantTriangle(n int, wLast bool) *graph.Graph {
	h, c, w, leaf := 0, 1, 2, 3
	if wLast {
		w, leaf = n-1, 2
	}
	b := graph.NewBuilder(n)
	b.AddEdge(h, c)
	b.AddEdge(c, w)
	b.AddEdge(w, h)
	b.AddEdge(c, leaf)
	for v := 0; v < n; v++ {
		if v != h && v != c && v != w && v != leaf {
			b.AddEdge(h, v)
		}
	}
	return b.Build()
}

// e8Instances returns the three H_{k,Δ} graphs E8 measures exactly at the
// default seed 20200424 (n = 18, 20, 22).
func e8Instances(t testing.TB) []*graph.Graph {
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

// TestExactConductanceAllocs pins ExactConductance's allocations on the
// n = 22 instance: the search keeps its state in fixed-size arrays.
func TestExactConductanceAllocs(t *testing.T) {
	g := e8Instances(t)[2]
	if got := testing.AllocsPerRun(2, func() { _, _ = ExactConductance(g) }); got != 0 {
		t.Errorf("ExactConductance allocates %v times per call, want 0", got)
	}
}

// matchOracle fails t unless ExactConductance(g) returns the oracle's error and
// value, to the bit.
func matchOracle(t *testing.T, g *graph.Graph) {
	t.Helper()
	got, err := ExactConductance(g)
	want, wantErr := exactConductanceOracle(g)
	if !errors.Is(err, wantErr) || math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("n=%d edges=%v: Φ = (%v, %v), oracle (%v, %v)", g.N(), g.AppendEdges(nil), got, err, want, wantErr)
	}
}

func TestExactConductanceMatchesOracle(t *testing.T) {
	gs := append(oracleFamily(31), e8Instances(t)...)
	if testing.Short() {
		gs = gs[:len(gs)-1] // the n = 22 oracle dominates a -race run
	} else {
		gs = append(gs, gen.Clique(22), gen.Star(22, 0), gen.CompleteBipartite(11, 11),
			complementOfCycle(22))
	}
	for _, g := range gs {
		matchOracle(t, g)
	}
}

// TestExactConductanceMatchesOracleExhaustive compares ExactConductance with
// the oracle on every labelled graph on 1…6 vertices, disconnected ones and
// ties included, and stops at the first mismatch.
func TestExactConductanceMatchesOracleExhaustive(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for mask := 0; mask < 1<<uint(n*(n-1)/2); mask++ {
			matchOracle(t, decodeGraph([]byte{byte(n - 1), byte(mask), byte(mask >> 8)}))
			if t.Failed() {
				return
			}
		}
	}
}

// TestExactConductanceSearchSize pins how much of the search the bound and
// the twin rule cut away: on E8's n = 22 instance and on the twin-rich K_22,
// K_{1,21} and K_{11,11}, it visits at most 2^11 partial assignments, where
// the per-subset enumeration scores 2^21 cuts.
func TestExactConductanceSearchSize(t *testing.T) {
	gs := []*graph.Graph{e8Instances(t)[2], gen.Clique(22), gen.Star(22, 0), gen.CompleteBipartite(11, 11)}
	for _, g := range gs {
		var s cutSearch
		if err := s.run(g); err != nil {
			t.Fatal(err)
		}
		if s.nodes > 1<<11 {
			t.Errorf("n=%d m=%d: the search visits %d partial assignments, want at most %d", g.N(), g.M(), s.nodes, 1<<11)
		}
	}
}

// BenchmarkExactConductanceN22 times one exact pass over E8's n = 22 instance,
// the largest graph the experiments measure exactly.
func BenchmarkExactConductanceN22(b *testing.B) {
	g := e8Instances(b)[2]
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ExactConductance(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactConductanceDense times one exact pass over the complement of
// C_22, which takes the search 1.1 M partial assignments. Dense graphs are
// its worst case: the slowest found, a G(22, 0.9), took 1.3 M.
func BenchmarkExactConductanceDense(b *testing.B) {
	g := complementOfCycle(22)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ExactConductance(g); err != nil {
			b.Fatal(err)
		}
	}
}

// decodeGraph reads a graph on 1…12 vertices: data[0] picks n, and the
// following bits, least significant first, mark the pairs {u, v}, u < v,
// in lexicographic order. Missing bits are absent edges.
func decodeGraph(data []byte) *graph.Graph {
	n := 1
	if len(data) > 0 {
		n += int(data[0]) % 12
		data = data[1:]
	}
	b := graph.NewBuilder(n)
	bit := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if bit/8 < len(data) && data[bit/8]>>uint(bit%8)&1 == 1 {
				b.AddEdge(u, v)
			}
			bit++
		}
	}
	return b.Build()
}

// encodeGraph is decodeGraph's inverse for graphs on 1…12 vertices.
func encodeGraph(g *graph.Graph) []byte {
	n := g.N()
	data := make([]byte, 1+(n*(n-1)/2+7)/8)
	data[0] = byte(n - 1)
	bit := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if g.HasEdge(u, v) {
				data[1+bit/8] |= 1 << uint(bit%8)
			}
			bit++
		}
	}
	return data
}

// FuzzExactMatchesOracle compares ExactConductance with the oracle on decoded graphs
// of up to 12 vertices, seeded with the oracle family's graphs that fit,
// the balanced-cut ones among them.
func FuzzExactMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	for _, g := range oracleFamily(31) {
		if g.N() <= 12 {
			f.Add(encodeGraph(g))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		matchOracle(t, decodeGraph(data))
	})
}

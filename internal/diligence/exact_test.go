package diligence

import (
	"errors"
	"math"
	"testing"

	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/xrand"
)

// exactOracle is the direct enumeration Exact replaced: every subset with
// 0 < vol(S) <= vol(G)/2, each scored directly by OfCut.
func exactOracle(g *graph.Graph) (float64, error) {
	n := g.N()
	if n > exactLimit {
		return 0, ErrTooLarge
	}
	if !g.IsConnected() || g.M() == 0 {
		return 0, nil
	}
	totalVol := g.Volume()
	best := math.Inf(1)
	member := make([]bool, n)
	for mask := 1; mask < (1<<uint(n))-1; mask++ {
		vol := 0
		for v := 0; v < n; v++ {
			member[v] = mask&(1<<uint(v)) != 0
			if member[v] {
				vol += g.Degree(v)
			}
		}
		if vol == 0 || 2*vol > totalVol {
			continue
		}
		rho := OfCut(g, member)
		if rho > 0 && rho < best {
			best = rho
		}
	}
	if math.IsInf(best, 1) {
		return 1, nil
	}
	return best, nil
}

// oracleFamily returns a seeded family of graphs on 2…14 vertices:
// disconnected graphs, graphs with isolated vertices (0, which the Gray code
// flips most often, and n-1), stars, paths, a clique plus pendant, G(n, p)
// and graphs whose minimising cut is volume-balanced (pendantTriangle).
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
		if n >= 6 {
			gs = append(gs, pendantTriangle(n, false), pendantTriangle(n, true))
		}
	}
	return gs
}

// pendantTriangle is a triangle h, c, w with one pendant leaf on c and
// n-4 >= 2 on h. Its only cut attaining ρ(G) is volume-balanced with sides
// of unequal size: c with all n-3 leaves, whose average degree is smaller
// and which gives ρ(G), against h and w. wLast labels w as n-1, which the
// enumeration never moves, so n-1 lies on the smaller side; otherwise n-1
// is a leaf of h, on the larger side.
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

// TestExactAllocs pins Exact's allocations on the n = 22 instance: two for
// the connectivity check and one for the level table, none per subset.
func TestExactAllocs(t *testing.T) {
	g := e8Instances(t)[2]
	if got := testing.AllocsPerRun(2, func() { _, _ = Exact(g) }); got != 3 {
		t.Errorf("Exact allocates %v times per call, want 3", got)
	}
}

// matchOracle fails t unless Exact(g) returns the oracle's error and
// value, to the bit.
func matchOracle(t *testing.T, g *graph.Graph) {
	t.Helper()
	got, err := Exact(g)
	want, wantErr := exactOracle(g)
	if !errors.Is(err, wantErr) || math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("n=%d edges=%v: ρ = (%v, %v), oracle (%v, %v)", g.N(), g.Edges(), got, err, want, wantErr)
	}
}

func TestExactMatchesOracle(t *testing.T) {
	hs := e8Instances(t)
	if testing.Short() {
		hs = hs[:2] // the n = 22 oracle dominates a -race run
	}
	gs := append(oracleFamily(31), hs...)
	for _, g := range gs {
		matchOracle(t, g)
	}
}

// BenchmarkExactN22 times one exact pass over E8's n = 22 instance,
// the largest graph the experiments measure exactly.
func BenchmarkExactN22(b *testing.B) {
	g := e8Instances(b)[2]
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Exact(g); err != nil {
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

// FuzzExactMatchesOracle compares Exact with the oracle on decoded graphs
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

package graph

import (
	"slices"
	"sort"
	"testing"

	"dynamicrumor/internal/xrand"
)

// mapReferenceGraph is the historical map-dedup + comparison-sort
// construction the counting-sort builder replaced; the property tests below
// pin the new path to it bit for bit. It also returns the canonical sorted
// edge list.
func mapReferenceGraph(n int, edges []Edge) (*Graph, []Edge) {
	seen := make(map[Edge]struct{}, len(edges))
	var clean []Edge
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		c := e.Canonical()
		if _, dup := seen[c]; dup {
			continue
		}
		seen[c] = struct{}{}
		clean = append(clean, c)
	}
	sort.Slice(clean, func(i, j int) bool {
		if clean[i].U != clean[j].U {
			return clean[i].U < clean[j].U
		}
		return clean[i].V < clean[j].V
	})
	g := &Graph{n: n}
	g.degree = make([]int32, n)
	for _, e := range clean {
		g.degree[e.U]++
		g.degree[e.V]++
	}
	g.adjOff = make([]int, n+1)
	for v := 0; v < n; v++ {
		g.adjOff[v+1] = g.adjOff[v] + int(g.degree[v])
	}
	g.adj = make([]int32, 2*len(clean))
	fill := make([]int, n)
	copy(fill, g.adjOff[:n])
	for _, e := range clean {
		g.adj[fill[e.U]] = int32(e.V)
		fill[e.U]++
		g.adj[fill[e.V]] = int32(e.U)
		fill[e.V]++
	}
	for v := 0; v < n; v++ {
		slices.Sort(g.adj[g.adjOff[v]:g.adjOff[v+1]])
	}
	return g, clean
}

// requireSameGraph asserts that got and want agree on every observable:
// edge list, degrees, adjacency (content and order) and validity.
func requireSameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.Volume() != want.Volume() {
		t.Fatalf("shape mismatch: got n=%d m=%d vol=%d, want n=%d m=%d vol=%d",
			got.N(), got.M(), got.Volume(), want.N(), want.M(), want.Volume())
	}
	if ge, we := got.AppendEdges(nil), want.AppendEdges(nil); !slices.Equal(ge, we) {
		t.Fatalf("edge lists differ: got %v, want %v", ge, we)
	}
	for v := 0; v < want.N(); v++ {
		if got.Degree(v) != want.Degree(v) {
			t.Fatalf("degree of %d: got %d, want %d", v, got.Degree(v), want.Degree(v))
		}
		if gn, wn := got.Neighbors(v), want.Neighbors(v); !slices.Equal(gn, wn) {
			t.Fatalf("neighbors of %d: got %v, want %v", v, gn, wn)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("built graph invalid: %v", err)
	}
}

// TestBuilderMatchesMapReference is the property test of the CSR-direct
// builder: for random edge multisets with duplicates and self-loops the
// counting-sort construction must produce a graph identical to the
// historical map-based path in every observable.
func TestBuilderMatchesMapReference(t *testing.T) {
	rng := xrand.New(20200424)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		m := rng.Intn(4 * n)
		edges := make([]Edge, 0, m+m/3)
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			edges = append(edges, Edge{U: u, V: v}) // may be a self-loop
			if i%3 == 0 {
				edges = append(edges, Edge{U: v, V: u}) // reversed duplicate
			}
		}
		got := FromEdges(n, edges)
		want, wantEdges := mapReferenceGraph(n, edges)
		requireSameGraph(t, got, want)
		if ge := got.AppendEdges(nil); !slices.Equal(ge, wantEdges) {
			t.Fatalf("AppendEdges = %v, want %v", ge, wantEdges)
		}

		// The same multiset through the incremental builder, built twice:
		// a build keeps the builder's edges, so the second is the same graph.
		b := NewBuilder(n)
		for _, e := range edges {
			b.AddEdge(e.U, e.V)
		}
		if b.NumEdges() != want.M() {
			t.Fatalf("NumEdges = %d, want %d", b.NumEdges(), want.M())
		}
		requireSameGraph(t, b.Build(), want)
		requireSameGraph(t, b.Build(), want)
	}
}

// TestBuilderResetRecycles checks that Reset drops pending edges, re-targets
// the vertex count, and that repeated Reset/Build cycles on one builder keep
// producing correct graphs.
func TestBuilderResetRecycles(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g1 := b.Build()
	if g1.M() != 2 {
		t.Fatalf("first build m=%d, want 2", g1.M())
	}
	b.Reset(5)
	if b.NumEdges() != 0 {
		t.Fatal("Reset did not drop pending edges")
	}
	b.AddEdge(3, 4)
	g2 := b.Build()
	if g2.N() != 5 || g2.M() != 1 || !g2.HasEdge(3, 4) {
		t.Fatalf("post-Reset build wrong: n=%d m=%d", g2.N(), g2.M())
	}
	// The first graph must be untouched by the recycled builder.
	if g1.N() != 3 || g1.M() != 2 || !g1.HasEdge(0, 1) || !g1.HasEdge(1, 2) {
		t.Fatal("Build result mutated by a later Reset/Build cycle")
	}
}

// TestBuildIntoReusesBuffers checks BuildInto's recycling contract: the
// rebuilt graph is correct, and with stable sizes the second rebuild into a
// retired buffer performs zero allocations.
func TestBuildIntoReusesBuffers(t *testing.T) {
	rng := xrand.New(7)
	b := NewBuilder(64)
	star := func(center int) {
		b.Reset(64)
		for v := 0; v < 64; v++ {
			if v != center {
				b.AddEdge(center, v)
			}
		}
	}
	var bufs [2]*Graph
	cur := 0
	star(0)
	bufs[0] = b.BuildInto(nil)
	star(1)
	bufs[1] = b.BuildInto(nil)
	// Warmed up: alternating rebuilds must not allocate.
	allocs := testing.AllocsPerRun(100, func() {
		center := rng.Intn(64)
		star(center)
		cur ^= 1
		bufs[cur] = b.BuildInto(bufs[cur])
		if bufs[cur].Degree(center) != 63 {
			t.Fatal("rebuilt star wrong")
		}
	})
	if allocs != 0 {
		t.Fatalf("BuildInto steady state allocates %.1f times per rebuild, want 0", allocs)
	}
	if err := bufs[cur].Validate(); err != nil {
		t.Fatal(err)
	}
	// BuildInto(dst) must return dst itself so callers can double-buffer.
	star(2)
	if got := b.BuildInto(bufs[0]); got != bufs[0] {
		t.Fatal("BuildInto did not return dst")
	}
}

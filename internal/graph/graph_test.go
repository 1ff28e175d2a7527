package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"dynamicrumor/internal/xrand"
)

func triangle() *Graph {
	return FromEdges(3, []Edge{{0, 1}, {1, 2}, {0, 2}})
}

func path4() *Graph {
	return FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate in the other direction
	b.AddEdge(2, 3)
	b.AddEdge(2, 2) // self loop, ignored
	if b.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", b.NumEdges())
	}
	// 2<<32|3 would pack into the key of {2, 3} if HasEdge skipped its range
	// check.
	if !b.HasEdge(1, 0) || b.HasEdge(0, 2) || b.HasEdge(0, 2<<32|3) || b.HasEdge(-1, 0) {
		t.Fatal("HasEdge gave wrong answer")
	}
	g := b.Build()
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("built graph n=%d m=%d, want 4,2", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestNewBuilderPanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBuilder(-1) did not panic")
		}
	}()
	NewBuilder(-1)
}

func TestFromEdgesDeduplicates(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 0}, {0, 1}, {2, 2}})
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
}

func TestFromEdgesPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromEdges out of range did not panic")
		}
	}()
	FromEdges(2, []Edge{{0, 5}})
}

func TestDegreesAndVolume(t *testing.T) {
	g := triangle()
	for v := 0; v < 3; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("Degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
	if g.Volume() != 6 {
		t.Fatalf("Volume = %d, want 6", g.Volume())
	}
	if g.AverageDegree() != 2 {
		t.Fatalf("AverageDegree = %v, want 2", g.AverageDegree())
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := FromEdges(5, []Edge{{4, 0}, {2, 0}, {0, 3}})
	if nb := g.Neighbors(0); !slices.Equal(nb, []int32{2, 3, 4}) {
		t.Fatalf("Neighbors(0) = %v, want [2 3 4]", nb)
	}
	if g.Neighbor(0, 1) != 3 {
		t.Fatalf("Neighbor(0,1) = %d, want 3", g.Neighbor(0, 1))
	}
}

func TestHasEdge(t *testing.T) {
	g := path4()
	cases := []struct {
		u, v int
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {0, 2, false}, {3, 2, true},
		{0, 0, false}, {-1, 0, false}, {0, 4, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestMinMaxDegree(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}})
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if g.MinDegree() != 1 {
		t.Fatalf("MinDegree = %d", g.MinDegree())
	}
}

func TestIsRegular(t *testing.T) {
	if ok, d := triangle().IsRegular(); !ok || d != 2 {
		t.Fatalf("triangle IsRegular = (%v,%d)", ok, d)
	}
	if ok, _ := path4().IsRegular(); ok {
		t.Fatal("path4 reported regular")
	}
	empty := FromEdges(0, nil)
	if ok, d := empty.IsRegular(); !ok || d != 0 {
		t.Fatalf("empty IsRegular = (%v,%d)", ok, d)
	}
}

func TestVolumeOfAndCut(t *testing.T) {
	g := path4()
	member := []bool{true, true, false, false}
	if got := g.VolumeOf(member); got != 3 { // deg(0)=1, deg(1)=2
		t.Fatalf("VolumeOf = %d, want 3", got)
	}
	cut := g.CutEdges(member)
	if len(cut) != 1 || cut[0] != (Edge{1, 2}) {
		t.Fatalf("CutEdges = %v", cut)
	}
	if g.CutSize(member) != 1 {
		t.Fatalf("CutSize = %d, want 1", g.CutSize(member))
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	member := []bool{true, true, true, false, false}
	sub, mapping := g.InducedSubgraph(member)
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("induced subgraph n=%d m=%d, want 3,2", sub.N(), sub.M())
	}
	if len(mapping) != 3 || mapping[0] != 0 || mapping[2] != 2 {
		t.Fatalf("mapping = %v", mapping)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeCanonical(t *testing.T) {
	e := Edge{U: 5, V: 2}.Canonical()
	if e.U != 2 || e.V != 5 {
		t.Fatalf("Canonical = %+v", e)
	}
}

func TestBFSPath(t *testing.T) {
	g := path4()
	dist := g.BFS(0)
	want := []int{0, 1, 2, 3}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("BFS dist = %v, want %v", dist, want)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}})
	dist := g.BFS(0)
	if dist[2] != -1 {
		t.Fatalf("dist to isolated vertex = %d, want -1", dist[2])
	}
}

func TestBFSBadSource(t *testing.T) {
	g := triangle()
	dist := g.BFS(-1)
	for _, d := range dist {
		if d != -1 {
			t.Fatal("BFS from invalid source should mark everything unreachable")
		}
	}
}

func TestIsConnected(t *testing.T) {
	if !triangle().IsConnected() {
		t.Fatal("triangle not connected")
	}
	if FromEdges(3, []Edge{{0, 1}}).IsConnected() {
		t.Fatal("graph with isolated vertex reported connected")
	}
	if !FromEdges(1, nil).IsConnected() {
		t.Fatal("single vertex not connected")
	}
	if !FromEdges(0, nil).IsConnected() {
		t.Fatal("empty graph not connected")
	}
}

func TestComponents(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {2, 3}})
	comp, k := g.Components()
	if k != 3 {
		t.Fatalf("components = %d, want 3", k)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] || comp[4] == comp[0] {
		t.Fatalf("component labels = %v", comp)
	}
}

func TestDiameter(t *testing.T) {
	if got := path4().Diameter(); got != 3 {
		t.Fatalf("path diameter = %d, want 3", got)
	}
	if got := triangle().Diameter(); got != 1 {
		t.Fatalf("triangle diameter = %d, want 1", got)
	}
	if got := FromEdges(3, []Edge{{0, 1}}).Diameter(); got != -1 {
		t.Fatalf("disconnected diameter = %d, want -1", got)
	}
	if got := FromEdges(0, nil).Diameter(); got != -1 {
		t.Fatalf("empty diameter = %d, want -1", got)
	}
}

// randomGraph builds a random graph for property tests.
func randomGraph(rng *xrand.RNG, maxN int) *Graph {
	n := rng.Intn(maxN) + 1
	b := NewBuilder(n)
	m := rng.Intn(3 * n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

func TestRandomGraphInvariants(t *testing.T) {
	rng := xrand.New(1234)
	for trial := 0; trial < 200; trial++ {
		g := randomGraph(rng, 40)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if g.Volume() != 2*g.M() {
			t.Fatalf("trial %d: volume %d != 2m %d", trial, g.Volume(), 2*g.M())
		}
		// Cut of the full vertex set and empty set are both empty.
		all := make([]bool, g.N())
		for i := range all {
			all[i] = true
		}
		if g.CutSize(all) != 0 || g.CutSize(make([]bool, g.N())) != 0 {
			t.Fatalf("trial %d: nonzero cut for trivial sets", trial)
		}
	}
}

func TestCutComplementSymmetryProperty(t *testing.T) {
	rng := xrand.New(77)
	if err := quick.Check(func(seed uint32) bool {
		g := randomGraph(rng.Split(uint64(seed)), 30)
		member := make([]bool, g.N())
		complement := make([]bool, g.N())
		r2 := rng.Split(uint64(seed) + 1)
		for i := range member {
			member[i] = r2.Bernoulli(0.5)
			complement[i] = !member[i]
		}
		return g.CutSize(member) == g.CutSize(complement)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestVolumeSplitProperty(t *testing.T) {
	rng := xrand.New(88)
	if err := quick.Check(func(seed uint32) bool {
		g := randomGraph(rng.Split(uint64(seed)), 30)
		member := make([]bool, g.N())
		complement := make([]bool, g.N())
		r2 := rng.Split(uint64(seed) + 7)
		for i := range member {
			member[i] = r2.Bernoulli(0.3)
			complement[i] = !member[i]
		}
		return g.VolumeOf(member)+g.VolumeOf(complement) == g.Volume()
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

package graph

import "testing"

// TestStarIntoMatchesBuilder pins StarInto to the builder path: identical
// edge lists, adjacency, degrees and volume for every center.
func TestStarIntoMatchesBuilder(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64} {
		for center := 0; center < n; center++ {
			want := func() *Graph {
				b := NewBuilder(n)
				for v := 0; v < n; v++ {
					if v != center {
						b.AddEdge(center, v)
					}
				}
				return b.Build()
			}()
			got := StarInto(nil, n, center)
			requireSameGraph(t, got, want)
		}
	}
}

// TestStarIntoRecyclesBuffers checks the double-buffer contract of the
// dynamic-star adversary: rebuilding into a retired graph reuses its arrays
// and allocates nothing once warm.
func TestStarIntoRecyclesBuffers(t *testing.T) {
	g := StarInto(nil, 300, 0)
	center := 0
	allocs := testing.AllocsPerRun(50, func() {
		center = (center + 7) % 300
		if got := StarInto(g, 300, center); got != g {
			t.Fatal("StarInto moved the graph")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm star rebuild allocates %.1f times, want 0", allocs)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStarIntoPanicsOutOfRange mirrors the builder's range checking.
func TestStarIntoPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range center")
		}
	}()
	StarInto(nil, 5, 5)
}

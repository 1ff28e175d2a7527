package gen

import (
	"slices"
	"testing"

	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/xrand"
)

// deterministicParams gives every Deterministic family a valid parameter set
// for the no-draw audit.
var deterministicParams = map[string]Params{
	"clique":             {"n": 17},
	"star":               {"n": 9, "center": 3},
	"path":               {"n": 11},
	"cycle":              {"n": 12},
	"hypercube":          {"n": 32},
	"torus":              {"rows": 4, "cols": 5},
	"grid":               {"rows": 3, "cols": 6},
	"complete-bipartite": {"a": 4, "b": 7},
	"barbell":            {"k": 6},
}

// TestDeterministicFamiliesNeverDraw enforces the contract behind graph
// sharing in batch compilation: a family flagged Deterministic must never
// draw from its rng, because the engine builds its graph once and shares it
// across every repetition — a single skipped draw would shift every sibling
// repetition's stream. Building with a nil rng turns any violation into a
// panic, and building twice must give the identical edge set.
func TestDeterministicFamiliesNeverDraw(t *testing.T) {
	audited := 0
	for _, name := range Families() {
		if !IsDeterministic(name) {
			continue
		}
		p, ok := deterministicParams[name]
		if !ok {
			t.Errorf("family %q is Deterministic but has no audit parameters; add it to deterministicParams", name)
			continue
		}
		g1, err := Build(name, p, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g2, err := Build(name, p, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameEdges(g1, g2) {
			t.Errorf("family %q built two different graphs from equal parameters", name)
		}
		audited++
	}
	if audited < 9 {
		t.Fatalf("audited only %d deterministic families, expected at least 9", audited)
	}
}

// TestRandomFamiliesNotFlaggedDeterministic guards the inverse direction for
// the families known to draw.
func TestRandomFamiliesNotFlaggedDeterministic(t *testing.T) {
	for _, name := range []string{"er", "expander", "random-regular"} {
		if IsDeterministic(name) {
			t.Errorf("family %q draws from its rng but is flagged Deterministic", name)
		}
	}
}

// TestBuildIntoMatchesBuild pins the emitter contract: BuildInto through a
// recycled builder and graph must produce the identical graph to Build from
// an equal generator state, for both emitter-backed random families and the
// fallback path.
func TestBuildIntoMatchesBuild(t *testing.T) {
	cases := []struct {
		family string
		params Params
	}{
		{"er", Params{"n": 200, "p": 0.03}},
		{"er", Params{"n": 50, "p": 1.2}}, // clamped p >= 1 branch
		{"expander", Params{"n": 120, "degree": 6}},
		{"expander", Params{"n": 5, "degree": 6}},   // small-n clique branch
		{"cycle", Params{"n": 64}},                  // fallback: no emitter needed
		{"random-regular", Params{"n": 20, "d": 3}}, // fallback with draws
	}
	b := graph.NewBuilder(0)
	var dst *graph.Graph
	var sc EmitScratch
	for _, tc := range cases {
		want, err := Build(tc.family, tc.params, xrand.New(1234))
		if err != nil {
			t.Fatalf("%s Build: %v", tc.family, err)
		}
		got, err := BuildInto(tc.family, tc.params, xrand.New(1234), b, dst, &sc)
		if err != nil {
			t.Fatalf("%s BuildInto: %v", tc.family, err)
		}
		if !sameEdges(want, got) {
			t.Fatalf("%s: BuildInto diverged from Build", tc.family)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: BuildInto graph invalid: %v", tc.family, err)
		}
		dst = got // recycle across families like a batch worker would
	}
}

// TestAppendErdosRenyiRecycles pins that the er emitter is allocation-free in
// a warm builder+graph pair — the steady state of a batch worker redrawing a
// random static network every repetition.
func TestAppendErdosRenyiRecycles(t *testing.T) {
	rng := xrand.New(5)
	b := graph.NewBuilder(0)
	var g *graph.Graph
	// Warm until the edge-count high-water mark stabilizes: each redraw has
	// a different edge count, and buffers only ratchet up to the largest seen.
	for i := 0; i < 50; i++ {
		AppendErdosRenyi(b, 300, 0.02, rng)
		g = b.BuildInto(g)
	}
	allocs := testing.AllocsPerRun(10, func() {
		AppendErdosRenyi(b, 300, 0.02, rng)
		if got := b.BuildInto(g); got != g {
			t.Fatal("BuildInto moved the graph")
		}
	})
	if allocs >= 1 {
		t.Fatalf("warm G(n,p) redraw allocates %.1f times, want ~0", allocs)
	}
}

// sameEdges reports whether two graphs have identical sorted edge lists.
func sameEdges(a, b *graph.Graph) bool {
	return a.N() == b.N() && slices.Equal(a.AppendEdges(nil), b.AppendEdges(nil))
}

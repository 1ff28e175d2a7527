package graph

import (
	"math"
	"runtime"
	"testing"

	"dynamicrumor/internal/xrand"
)

// The emissions below are the AddEdge sequences of real constructions,
// recorded here because this package cannot import gen: replaying them times
// and weighs the builder alone.

// torusEmission is gen.Torus(rows, cols)'s AddEdge sequence.
func torusEmission(rows, cols int) []Edge {
	es := make([]Edge, 0, 2*rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			es = append(es, Edge{r*cols + c, r*cols + (c+1)%cols}, Edge{r*cols + c, ((r+1)%rows)*cols + c})
		}
	}
	return es
}

// cliqueEmission is gen.Clique(n)'s AddEdge sequence.
func cliqueEmission(n int) []Edge {
	es := make([]Edge, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			es = append(es, Edge{u, v})
		}
	}
	return es
}

// matchingsEmission is the union of k uniformly random perfect matchings on
// n vertices (n even), the shape of one expander or G(n, ρ) redraw.
func matchingsEmission(n, k int, rng *xrand.RNG) []Edge {
	es := make([]Edge, 0, k*n/2)
	for range k {
		p := rng.Perm(n)
		for i := 0; i+1 < n; i += 2 {
			es = append(es, Edge{p[i], p[i+1]})
		}
	}
	return es
}

// recycledBuild rebuilds the emission on b into dst, as the rebuilding
// dynamic networks do every step.
func recycledBuild(b *Builder, dst *Graph, n int, emission []Edge) *Graph {
	b.Reset(n)
	for _, e := range emission {
		b.AddEdge(e.U, e.V)
	}
	return b.BuildInto(dst)
}

// raceEnabled reports a race-detector build (see race_test.go), whose
// instrumentation allocates a slice grown by append separately from the
// append, so byte and object counts differ from a normal build.
var raceEnabled bool

// heapCost returns the bytes and objects one call of f allocates, averaged
// over runs calls, on one P so that no other goroutine's allocations count.
func heapCost(runs int, f func()) (bytes, objects uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up lazily initialized runtime state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs), (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestColdBuildBytes gates what one cold build allocates: FromEdges, which
// pre-sizes its builder the way the deterministic gen constructions do. The
// layout is the packed keys and their sort scratch (8 bytes each per added
// edge), the histogram and the CSR offsets (8 bytes per vertex each), the
// int32 neighbor ids (8 bytes per edge) and the int32 degrees (4 per
// vertex). The budget is that layout plus an eighth for allocator size
// classes; an extra per-edge array, such as an edge list beside the CSR,
// exceeds it. The object count is exact: the graph, its three arrays and
// the builder's three buffers.
func TestColdBuildBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	var sink *Graph
	for _, c := range []struct {
		name     string
		n        int
		emission []Edge
	}{
		{"torus64x64", 64 * 64, torusEmission(64, 64)},
		{"clique64", 64, cliqueEmission(64)},
	} {
		bytes, objects := heapCost(5, func() { sink = FromEdges(c.n, c.emission) })
		keys, m := uint64(len(c.emission)), uint64(sink.M())
		layout := 16*keys + 16*uint64(c.n) + 8 + 8*m + 4*uint64(c.n)
		if budget := layout + layout/8; bytes > budget {
			t.Errorf("%s: cold build allocates %d B, budget %d B (layout %d B)", c.name, bytes, budget, layout)
		}
		if objects != 7 {
			t.Errorf("%s: cold build allocates %d objects, want 7", c.name, objects)
		}
		t.Logf("%s: %d B in %d objects (layout %d B)", c.name, bytes, objects, layout)
	}
}

// TestVertexCountBeyondInt32Panics checks the int32-id guard: every entry
// point that sizes a graph refuses more than math.MaxInt32 vertices, as it
// refuses a negative count, before allocating anything.
func TestVertexCountBeyondInt32Panics(t *testing.T) {
	tooMany := math.MaxInt32
	tooMany++ // one vertex more than int32 ids can name
	b := NewBuilder(0)
	for name, f := range map[string]func(n int){
		"NewBuilder": func(n int) { NewBuilder(n) },
		"Reset":      b.Reset,
		"StarInto":   func(n int) { StarInto(nil, n, 0) },
	} {
		for _, n := range []int{-1, tooMany} {
			allocs := testing.AllocsPerRun(1, func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) did not panic", name, n)
					}
				}()
				f(n)
			})
			if allocs != 0 {
				t.Errorf("%s(%d) allocates %.0f times before panicking, want 0", name, n, allocs)
			}
		}
	}
}

var buildSink *Graph

func benchmarkColdBuild(b *testing.B, n int, emission []Edge) {
	b.ReportAllocs()
	for b.Loop() {
		buildSink = FromEdges(n, emission)
	}
}

func benchmarkRecycledBuild(b *testing.B, n int, emission []Edge) {
	bu := NewBuilder(n)
	g := recycledBuild(bu, nil, n, emission)
	b.ReportAllocs()
	for b.Loop() {
		g = recycledBuild(bu, g, n, emission)
	}
	buildSink = g
}

// BenchmarkBuildTorus512Cold is one cold build of the 512×512 torus, the
// graph rumorbench's ensemble-mix compiles.
func BenchmarkBuildTorus512Cold(b *testing.B) {
	benchmarkColdBuild(b, 512*512, torusEmission(512, 512))
}

// BenchmarkBuildTorus512Recycled rebuilds the 512×512 torus into recycled
// buffers.
func BenchmarkBuildTorus512Recycled(b *testing.B) {
	benchmarkRecycledBuild(b, 512*512, torusEmission(512, 512))
}

// BenchmarkBuildClique256Cold is one cold build of K_256, the dense case.
func BenchmarkBuildClique256Cold(b *testing.B) {
	benchmarkColdBuild(b, 256, cliqueEmission(256))
}

// BenchmarkBuildMatchings10000Recycled rebuilds the union of 8 random
// perfect matchings on 10⁴ vertices into recycled buffers: the shape of a
// per-repetition expander redraw.
func BenchmarkBuildMatchings10000Recycled(b *testing.B) {
	benchmarkRecycledBuild(b, 10000, matchingsEmission(10000, 8, xrand.New(20200424)))
}

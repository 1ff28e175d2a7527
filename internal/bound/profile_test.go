package bound

import (
	"slices"
	"testing"

	"dynamicrumor/internal/dynamic"
	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/xrand"
)

// TestNetworkProfilerOnRecyclingNetwork drives the profiler over an
// edge-Markovian network, which rebuilds every step into one of two
// alternating graph buffers: a step can expose new content at an address an
// earlier step used, and unchanged content at a new address. Every step's
// profile must equal a fresh measurement of the same step taken from an
// identically seeded twin network.
func TestNetworkProfilerOnRecyclingNetwork(t *testing.T) {
	const n, steps = 12, 300
	newNet := func() *dynamic.EdgeMarkovian {
		net, err := dynamic.NewEdgeMarkovian(n, 0.02, 0.05, gen.Cycle(n), xrand.New(61))
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	net, twin := newNet(), newNet()

	type exposed struct {
		g     *graph.Graph
		edges []graph.Edge // content at the time of the call
	}
	var calls []exposed // graphAt calls, indexed by step
	np := NewNetworkProfiler(func(s int) *graph.Graph {
		if s != len(calls) {
			t.Fatalf("graphAt(%d) called after %d calls, want steps in order, once each", s, len(calls))
		}
		g := net.GraphAt(s, nil)
		calls = append(calls, exposed{g, slices.Clone(g.Edges())})
		return g
	})
	want := make([]StepProfile, steps)
	for s := range steps {
		want[s] = MeasureProfile(graph.FromEdges(n, twin.GraphAt(s, nil).Edges()))
		if got := np.Profile(s); got != want[s] {
			t.Fatalf("step %d: profile %+v, want %+v", s, got, want[s])
		}
	}
	if len(np.memo) > memoSize {
		t.Fatalf("memo holds %d graphs, want at most %d", len(np.memo), memoSize)
	}

	// The run must cover both ways a pointer key would go wrong.
	reusedAddr, movedContent := false, false
	lastAt := make(map[*graph.Graph]int)
	for s, c := range calls {
		if prev, ok := lastAt[c.g]; ok && want[prev] != want[s] {
			reusedAddr = true // same address, different graph and profile
		}
		lastAt[c.g] = s
		if s > 0 && c.g != calls[s-1].g && slices.Equal(c.edges, calls[s-1].edges) {
			movedContent = true // same graph, different address
		}
	}
	if !reusedAddr || !movedContent {
		t.Fatalf("coverage: address reused for a different profile %v, content repeated at a new address %v", reusedAddr, movedContent)
	}

	// Revisiting a step is answered from the per-step cache.
	for s := steps - 1; s >= 0; s-- {
		if got := np.Profile(s); got != want[s] {
			t.Fatalf("revisit step %d: profile %+v, want %+v", s, got, want[s])
		}
	}
	if len(calls) != steps {
		t.Fatalf("graphAt called %d times over %d steps", len(calls), steps)
	}
}

// TestNetworkProfilerMeasuresDistinctGraphsOnce alternates two graphs that
// are rebuilt at a fresh address every step: the memo must recognise them by
// content and hold one entry per distinct graph.
func TestNetworkProfilerMeasuresDistinctGraphsOnce(t *testing.T) {
	np := NewNetworkProfiler(func(s int) *graph.Graph {
		if s%2 == 0 {
			return gen.Cycle(10)
		}
		return gen.Star(10, 0)
	})
	for s := range 100 {
		np.Profile(s)
	}
	if len(np.memo) != 2 {
		t.Fatalf("memo holds %d graphs after alternating two, want 2", len(np.memo))
	}
}

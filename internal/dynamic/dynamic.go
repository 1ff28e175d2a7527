// Package dynamic implements dynamic evolving networks G = {G(t)}: a
// sequence of graphs over a fixed vertex set exposed at integer time steps
// t = 0, 1, 2, ..., possibly chosen adaptively as a function of the set of
// informed vertices (the adversary model used by the paper's lower-bound
// constructions in Sections 4–6).
package dynamic

import (
	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/xrand"
)

// Network is a dynamic evolving network over n vertices.
//
// GraphAt returns the graph exposed during the time interval [t, t+1). The
// informed argument is the set of informed vertices at the beginning of step
// t (length N()); adaptive constructions may use it, oblivious ones ignore it.
//
// Simulators, and bound.NetworkProfiler through the step function it wraps,
// call GraphAt with consecutive integer values of t, starting at 0, exactly
// once per step; stateful implementations (random evolving networks) rely on
// this calling discipline.
//
// Aliasing contract: rebuilding implementations recycle graph storage (see
// rebuilder below), so the graph returned for step t is guaranteed valid
// only until the network rebuilds for step t+2 — two rebuilds retire its
// backing arrays. Consecutive rebuilds always return distinct pointers
// (pointer equality with the previous step's graph reliably means "graph
// unchanged"), and a graph consumed before the next GraphAt call is always
// safe, which is all the simulators and profilers do. Callers that want a
// longer-lived snapshot must copy the graph while it is current.
type Network interface {
	// N returns the number of vertices (constant over time).
	N() int
	// GraphAt returns the graph for step t given the informed set.
	GraphAt(t int, informed []bool) *graph.Graph
}

// Reusable is the optional extension a Network implements when one instance
// can be recycled across Monte-Carlo repetitions: Reset must return the
// network to its as-constructed state for a fresh repetition, drawing from
// rng exactly what the constructor would (draw for draw), while keeping every
// backing buffer. A batch worker that resets a warm instance therefore
// produces bit-identical repetitions to one that constructs a fresh instance
// per repetition — without the per-repetition allocations. The engine's
// batch workers detect this interface and reuse their instance.
type Reusable interface {
	Network
	// Reset re-initializes the network for a new repetition using rng.
	Reset(rng *xrand.RNG) error
}

// Static wraps a single graph as a constant dynamic network.
type Static struct {
	g *graph.Graph
}

var _ Network = (*Static)(nil)

// NewStatic returns the dynamic network that exposes g at every step.
func NewStatic(g *graph.Graph) *Static { return &Static{g: g} }

// N implements Network.
func (s *Static) N() int { return s.g.N() }

// GraphAt implements Network.
func (s *Static) GraphAt(int, []bool) *graph.Graph { return s.g }

// Sequence exposes an explicit finite sequence of graphs; after the sequence
// is exhausted the last graph repeats forever.
type Sequence struct {
	graphs []*graph.Graph
}

var _ Network = (*Sequence)(nil)

// NewSequence returns a dynamic network exposing graphs[t] at step t (the
// last entry repeats once the sequence is exhausted). All graphs must share
// the same vertex count; it panics otherwise or if the sequence is empty.
func NewSequence(graphs []*graph.Graph) *Sequence {
	if len(graphs) == 0 {
		panic("dynamic: NewSequence with no graphs")
	}
	n := graphs[0].N()
	for _, g := range graphs[1:] {
		if g.N() != n {
			panic("dynamic: NewSequence with mismatched vertex counts")
		}
	}
	return &Sequence{graphs: append([]*graph.Graph(nil), graphs...)}
}

// N implements Network.
func (s *Sequence) N() int { return s.graphs[0].N() }

// GraphAt implements Network.
func (s *Sequence) GraphAt(t int, _ []bool) *graph.Graph {
	if t < 0 {
		t = 0
	}
	if t >= len(s.graphs) {
		t = len(s.graphs) - 1
	}
	return s.graphs[t]
}

// Len returns the number of distinct steps in the sequence.
func (s *Sequence) Len() int { return len(s.graphs) }

// Alternating cycles through a fixed list of graphs with the given period:
// step t exposes graphs[t mod len(graphs)].
type Alternating struct {
	graphs []*graph.Graph
}

var _ Network = (*Alternating)(nil)

// NewAlternating returns a periodic dynamic network. All graphs must share
// the same vertex count; it panics otherwise or if the list is empty.
func NewAlternating(graphs []*graph.Graph) *Alternating {
	if len(graphs) == 0 {
		panic("dynamic: NewAlternating with no graphs")
	}
	n := graphs[0].N()
	for _, g := range graphs[1:] {
		if g.N() != n {
			panic("dynamic: NewAlternating with mismatched vertex counts")
		}
	}
	return &Alternating{graphs: append([]*graph.Graph(nil), graphs...)}
}

// N implements Network.
func (a *Alternating) N() int { return a.graphs[0].N() }

// GraphAt implements Network.
func (a *Alternating) GraphAt(t int, _ []bool) *graph.Graph {
	if t < 0 {
		t = 0
	}
	return a.graphs[t%len(a.graphs)]
}

// Func adapts a function to the Network interface; useful for ad-hoc adaptive
// adversaries in tests and examples.
type Func struct {
	NumVertices int
	At          func(t int, informed []bool) *graph.Graph
}

var _ Network = (*Func)(nil)

// N implements Network.
func (f *Func) N() int { return f.NumVertices }

// GraphAt implements Network.
func (f *Func) GraphAt(t int, informed []bool) *graph.Graph { return f.At(t, informed) }

// rebuilder is the shared rebuild machinery of the networks that expose a
// fresh graph at unit-time boundaries: one recycled builder plus two graph
// buffers it alternates between, so steady-state rebuilds allocate nothing.
//
// The aliasing contract every user of rebuilder inherits (and documents):
// the graph returned for step t stays valid until the rebuild for step t+2,
// and consecutive rebuilds always return distinct pointers, which is what
// the simulators' `next != g` reload check relies on.
type rebuilder struct {
	b      *graph.Builder
	graphs [2]*graph.Graph
	cur    int
}

func newRebuilder(n int) rebuilder {
	return rebuilder{b: graph.NewBuilder(n)}
}

// begin resets the builder for a graph on n vertices and returns it for
// edge emission.
func (r *rebuilder) begin(n int) *graph.Builder {
	r.b.Reset(n)
	return r.b
}

// flip builds the emitted edges into the retired buffer and returns the
// freshly exposed graph.
func (r *rebuilder) flip() *graph.Graph {
	r.cur ^= 1
	r.graphs[r.cur] = r.b.BuildInto(r.graphs[r.cur])
	return r.graphs[r.cur]
}

// CountInformed returns the number of true entries; a small helper shared by
// the adaptive constructions.
func CountInformed(informed []bool) int {
	count := 0
	for _, b := range informed {
		if b {
			count++
		}
	}
	return count
}

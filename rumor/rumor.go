// Package rumor is the public API of the dynamicrumor library: asynchronous
// and synchronous rumor spreading (push-pull and its variants) on dynamic
// evolving networks, the graph parameters introduced by Pourmiri & Mans
// ("Tight Analysis of Asynchronous Rumor Spreading in Dynamic Networks",
// PODC 2020) — diligence and absolute diligence — and the spread-time bounds
// of that paper (Theorems 1.1, 1.3, Corollary 1.6), together with the
// adversarial network constructions used in its lower-bound proofs.
//
// The package is a thin facade over the internal implementation packages;
// everything needed to simulate, bound and experiment is reachable from here.
//
// The primary entry point is the scenario/engine API: describe a simulation
// declaratively as a Scenario (JSON-serializable) and execute Monte-Carlo
// batches of it with an Engine, whose results are bit-identical for every
// parallelism value:
//
//	eng := rumor.Engine{Seed: 1}
//	ens, err := eng.RunBatch(rumor.Scenario{
//		Network: rumor.NetworkSpec{Family: "clique", Params: rumor.Params{"n": 1000}},
//	}, 32)
//	// ens.MeanSpreadTime() is Θ(log n) on the clique.
//
// A single execution on a hand-built network runs a protocol directly:
//
//	res, err := rumor.AsyncProtocol{Opts: rumor.AsyncOptions{Start: 0}}.Run(net, rng)
//
// SyncProtocol and FloodingProtocol do the same for the synchronous
// processes.
package rumor

import (
	"dynamicrumor/internal/bound"
	"dynamicrumor/internal/diligence"
	"dynamicrumor/internal/dynamic"
	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/sim"
	"dynamicrumor/internal/spectral"
	"dynamicrumor/internal/xrand"
)

// Re-exported core types. The aliases keep the public API small while letting
// advanced users reach every method of the underlying types.
type (
	// Graph is an immutable undirected simple graph on vertices 0..n-1.
	Graph = graph.Graph
	// Edge is an undirected edge.
	Edge = graph.Edge
	// Builder incrementally assembles a Graph.
	Builder = graph.Builder
	// Network is a dynamic evolving network {G(t)}.
	Network = dynamic.Network
	// Result describes one execution of a spreading process.
	Result = sim.Result
	// TracePoint is one entry of a Result trace.
	TracePoint = sim.TracePoint
	// AsyncOptions configures AsyncProtocol and SpreadAsyncNaive.
	AsyncOptions = sim.AsyncOptions
	// SyncOptions configures SyncProtocol and FloodingProtocol.
	SyncOptions = sim.SyncOptions
	// Mode selects push-pull, push-only or pull-only transfer.
	Mode = sim.Mode
	// RNG is the deterministic random source used by every simulator.
	RNG = xrand.RNG
	// StepProfile carries the per-step graph parameters used by the bounds.
	StepProfile = bound.StepProfile
	// ProfileFunc maps a step index to its StepProfile.
	ProfileFunc = bound.ProfileFunc
)

// Transfer modes of the spreading processes.
const (
	PushPull = sim.PushPull
	PushOnly = sim.PushOnly
	PullOnly = sim.PullOnly
)

// Stream disciplines of the asynchronous simulator (Scenario.Stream and
// AsyncOptions.StreamVersion): v1 is the frozen seed-compatible default, v2
// the faster opt-in discipline, statistically equivalent but not
// byte-identical (gated by internal/statcheck).
const (
	StreamV1 = sim.StreamV1
	StreamV2 = sim.StreamV2
)

// NewRNG returns a deterministic random generator seeded with seed.
func NewRNG(seed uint64) *RNG { return xrand.New(seed) }

// NewBuilder returns a graph builder on n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph from an explicit edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// Standard graph families.

// Clique returns the complete graph K_n.
func Clique(n int) *Graph { return gen.Clique(n) }

// Star returns the star K_{1,n-1} centred at the given vertex.
func Star(n, center int) *Graph { return gen.Star(n, center) }

// Path returns the path on n vertices.
func Path(n int) *Graph { return gen.Path(n) }

// Cycle returns the cycle on n vertices.
func Cycle(n int) *Graph { return gen.Cycle(n) }

// Hypercube returns the d-dimensional hypercube.
func Hypercube(d int) *Graph { return gen.Hypercube(d) }

// Torus returns the rows x cols torus grid.
func Torus(rows, cols int) *Graph { return gen.Torus(rows, cols) }

// CompleteBipartite returns K_{a,b}.
func CompleteBipartite(a, b int) *Graph { return gen.CompleteBipartite(a, b) }

// Expander returns a connected constant-degree graph with Θ(1) conductance.
func Expander(n, maxDegree int, rng *RNG) *Graph { return gen.Expander(n, maxDegree, rng) }

// RandomRegular returns a random d-regular simple graph.
func RandomRegular(n, d int, rng *RNG) (*Graph, error) { return gen.RandomRegular(n, d, rng) }

// ErdosRenyi returns a G(n, p) random graph.
func ErdosRenyi(n int, p float64, rng *RNG) *Graph { return gen.ErdosRenyi(n, p, rng) }

// Dynamic networks.

// Static wraps a single graph as a constant dynamic network.
func Static(g *Graph) Network { return dynamic.NewStatic(g) }

// Sequence exposes graphs[t] at step t, repeating the last graph forever.
func Sequence(graphs []*Graph) Network { return dynamic.NewSequence(graphs) }

// Alternating cycles through the given graphs with period len(graphs).
func Alternating(graphs []*Graph) Network { return dynamic.NewAlternating(graphs) }

// AdaptiveFunc builds a network from an arbitrary (possibly adaptive)
// step-to-graph function.
func AdaptiveFunc(n int, at func(t int, informed []bool) *Graph) Network {
	return &dynamic.Func{NumVertices: n, At: at}
}

// RhoDiligentNetwork is the ρ-diligent dynamic network G(n, ρ) of
// Theorem 1.2, built from the H_{k,Δ} construction of Section 4.
type RhoDiligentNetwork = dynamic.GNRho

// NewRhoDiligentNetwork builds the Theorem 1.2 network; k <= 0 selects the
// paper's Θ(log n / log log n) default.
func NewRhoDiligentNetwork(n int, rho float64, k int, rng *RNG) (*RhoDiligentNetwork, error) {
	return dynamic.NewGNRho(n, rho, k, rng)
}

// AbsDiligentNetwork is the absolutely ρ-diligent dynamic network of
// Theorem 1.5 (Section 5.1).
type AbsDiligentNetwork = dynamic.AbsGNRho

// NewAbsDiligentNetwork builds the Theorem 1.5 network.
func NewAbsDiligentNetwork(n int, rho float64, rng *RNG) (*AbsDiligentNetwork, error) {
	return dynamic.NewAbsGNRho(n, rho, rng)
}

// DichotomyG1 is the clique-with-pendant → two-bridged-cliques network of
// Figure 1(a); synchronous spreading is exponentially faster on it.
type DichotomyG1 = dynamic.DichotomyG1

// NewDichotomyG1 builds G1 with an n-vertex initial clique.
func NewDichotomyG1(n int) (*DichotomyG1, error) { return dynamic.NewDichotomyG1(n) }

// DichotomyG2 is the adaptive dynamic star of Figure 1(b); asynchronous
// spreading is exponentially faster on it.
type DichotomyG2 = dynamic.DichotomyG2

// NewDichotomyG2 builds the dynamic star on n+1 vertices.
func NewDichotomyG2(n int, rng *RNG) (*DichotomyG2, error) { return dynamic.NewDichotomyG2(n, rng) }

// NewEdgeMarkovian builds the edge-Markovian evolving graph baseline
// (each absent edge appears with probability p, each present edge dies with
// probability q, per step).
func NewEdgeMarkovian(n int, p, q float64, initial *Graph, rng *RNG) (Network, error) {
	return dynamic.NewEdgeMarkovian(n, p, q, initial, rng)
}

// NewMobileAgents builds the mobile-agents-on-a-torus-grid proximity network
// baseline.
func NewMobileAgents(agents, side int, rng *RNG) (Network, error) {
	return dynamic.NewMobileAgents(agents, side, rng)
}

// SpreadAsyncNaive runs the tick-by-tick reference simulator of the
// asynchronous process (slow; intended for validating AsyncProtocol).
func SpreadAsyncNaive(net Network, opts AsyncOptions, rng *RNG) (*Result, error) {
	return sim.RunAsyncNaive(net, opts, rng)
}

// Graph parameters.

// AbsoluteDiligence returns ρ̄(G) = min over edges of max(1/du, 1/dv).
func AbsoluteDiligence(g *Graph) float64 { return diligence.Absolute(g) }

// Diligence returns the exact diligence ρ(G) of Equation (4); it errors for
// graphs with more than 22 vertices (the computation enumerates all cuts).
func Diligence(g *Graph) (float64, error) { return diligence.Exact(g) }

// CutDiligence returns ρ(S) for the vertex set marked true in member.
func CutDiligence(g *Graph, member []bool) float64 { return diligence.OfCut(g, member) }

// Conductance returns the exact conductance Φ(G); it errors for graphs with
// more than 22 vertices.
func Conductance(g *Graph) (float64, error) { return spectral.ExactConductance(g) }

// ConductanceEstimate returns a spectral sweep-cut estimate of Φ(G) usable at
// any size (an upper bound on the true conductance, plus the Cheeger lower
// bound SpectralGap/2).
func ConductanceEstimate(g *Graph) (upper, lower float64, err error) {
	est, err := spectral.EstimateConductance(g, 0)
	if err != nil {
		return 0, 0, err
	}
	return est.SweepConductance, est.LowerBound, nil
}

// MeasureProfile computes the StepProfile (Φ, ρ, ρ̄, connectivity) of a graph,
// exactly for small graphs and via estimates for large ones.
func MeasureProfile(g *Graph) StepProfile { return bound.MeasureProfile(g) }

// Spread-time bounds.

// Theorem11Bound returns T(G, c) of Theorem 1.1 for the given per-step
// profile: the first step at which Σ Φ·ρ reaches (10c+20)/c0 · log n.
func Theorem11Bound(profile ProfileFunc, n int, c float64, maxSteps int) (int, error) {
	return bound.Theorem11(profile, n, c, maxSteps)
}

// AbsoluteBound returns T_abs(G) of Theorem 1.3: the first step at which
// Σ ⌈Φ⌉·ρ̄ reaches 2n.
func AbsoluteBound(profile ProfileFunc, n int, maxSteps int) (int, error) {
	return bound.Theorem13(profile, n, maxSteps)
}

// CombinedBound returns min{T(G,c), T_abs} (Corollary 1.6).
func CombinedBound(profile ProfileFunc, n int, c float64, maxSteps int) (int, error) {
	return bound.Corollary16(profile, n, c, maxSteps)
}

// ConstantProfile turns a single StepProfile into a ProfileFunc.
func ConstantProfile(p StepProfile) ProfileFunc { return bound.ConstantProfile(p) }

// WorstCaseSpreadTime returns the O(n²) bound of Remark 1.4 for connected
// dynamic networks.
func WorstCaseSpreadTime(n int) float64 { return bound.Remark14WorstCase(n) }

package bound

import (
	"slices"

	"dynamicrumor/internal/diligence"
	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/spectral"
)

// MeasureProfile computes a StepProfile for a concrete graph. For graphs with
// at most 22 vertices Φ and ρ are exact, by enumeration of every cut. Above
// 22 vertices Φ is the spectral sweep-cut conductance, which is an upper bound
// on Φ, and ρ is the stand-in ρ̄·d̄ (capped at 1), so a Theorem 1.1 bound built
// from such profiles is an estimate.
func MeasureProfile(g *graph.Graph) StepProfile {
	p := StepProfile{
		AbsRho:    diligence.Absolute(g),
		Connected: g.M() > 0 && g.IsConnected(),
	}
	if !p.Connected {
		return p
	}
	if phi, err := spectral.ExactConductance(g); err == nil {
		p.Phi = phi
	} else if est, err := spectral.EstimateConductance(g, 0); err == nil {
		p.Phi = est.SweepConductance
	}
	if rho, err := diligence.Exact(g); err == nil {
		p.Rho = rho
	} else {
		// ρ(G) >= ρ̄(G)·d̄(S) / d̄(S) relationships are not exact in general;
		// the absolute diligence is the safe, always-computable stand-in the
		// experiments use for large graphs, and it is exact for regular
		// graphs up to the d̄ factor.
		p.Rho = p.AbsRho * g.AverageDegree()
		if p.Rho > 1 {
			p.Rho = 1
		}
	}
	return p
}

// memoSize bounds the distinct graphs a NetworkProfiler remembers: enough
// for the static and alternating networks the experiments profile, few
// enough that a network which never repeats a graph pays only a handful of
// edge-list comparisons per step, most ending at the first differing edge.
const memoSize = 4

// NetworkProfiler builds a ProfileFunc that measures the profile of the graph
// a dynamic network would expose at step t assuming a fixed informed set
// (nil for oblivious networks). This is meant for oblivious networks
// (Static, Sequence, Alternating, EdgeMarkovian ...); adaptive constructions
// should use their analytic profiles instead.
//
// Profiles are cached per step, so graphAt is called at most once per step,
// and a profiler driven by the bounds calls it for t = 0, 1, 2, ... in order:
// the once-per-step discipline stateful networks rely on. A graph is measured
// only if it differs from each of the few distinct graphs measured most
// recently, so a static or periodic network is measured once per distinct
// graph. That memo is keyed by content — the vertex count and the canonical
// edge list, compared in full against an edge copy the profiler owns — never
// by pointer, because rebuilding networks recycle graph storage and expose
// new content at an old address. Evicted entries hand their edge buffers to
// the next graph, so the memo neither grows nor allocates once warm.
type NetworkProfiler struct {
	graphAt func(t int) *graph.Graph
	cache   map[int]StepProfile
	memo    []measured // most recently measured first
}

// measured is a graph the profiler has measured, keyed by its content.
type measured struct {
	n       int
	edges   []graph.Edge
	profile StepProfile
}

// NewNetworkProfiler wraps a step-to-graph function.
func NewNetworkProfiler(graphAt func(t int) *graph.Graph) *NetworkProfiler {
	return &NetworkProfiler{graphAt: graphAt, cache: make(map[int]StepProfile)}
}

// Profile returns the (cached) measured profile of step t.
func (np *NetworkProfiler) Profile(t int) StepProfile {
	if p, ok := np.cache[t]; ok {
		return p
	}
	p := np.measure(np.graphAt(t))
	np.cache[t] = p
	return p
}

// measure returns the profile of g, from the memo when a graph with the same
// content was measured recently.
func (np *NetworkProfiler) measure(g *graph.Graph) StepProfile {
	for _, m := range np.memo {
		if m.n == g.N() && slices.Equal(m.edges, g.Edges()) {
			return m.profile
		}
	}
	if len(np.memo) < memoSize {
		np.memo = append(np.memo, measured{})
	}
	// Evict the oldest entry, reusing its edge buffer, and put g in front.
	m := np.memo[len(np.memo)-1]
	copy(np.memo[1:], np.memo[:len(np.memo)-1])
	m.n = g.N()
	m.edges = append(m.edges[:0], g.Edges()...)
	m.profile = MeasureProfile(g)
	np.memo[0] = m
	return m.profile
}

// Func returns the ProfileFunc form of the profiler.
func (np *NetworkProfiler) Func() ProfileFunc {
	return func(t int) StepProfile { return np.Profile(t) }
}

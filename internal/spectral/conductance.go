// Package spectral computes graph conductance: exactly by enumeration for
// small graphs, and approximately via the spectral gap of the normalized
// adjacency operator (Cheeger's inequality) with a sweep cut for large graphs.
package spectral

import (
	"errors"
	"math"
	"math/bits"
	"sort"

	"dynamicrumor/internal/graph"
)

// ErrTooLarge is returned by ExactConductance for graphs beyond the
// enumeration limit.
var ErrTooLarge = errors.New("spectral: graph too large for exact conductance")

// ErrNoEdges is returned when conductance is undefined (no edges).
var ErrNoEdges = errors.New("spectral: conductance undefined for a graph with no edges")

// exactLimit is the largest vertex count for which ExactConductance will
// enumerate all cuts (2^n subsets).
const exactLimit = 22

// CutConductance returns |E(S, S̄)| / min(vol(S), vol(S̄)) for the vertex set
// marked true in member, following Equation (2) of the paper. It returns an
// error if either side has zero volume.
func CutConductance(g *graph.Graph, member []bool) (float64, error) {
	volS := g.VolumeOf(member)
	volC := g.Volume() - volS
	if volS == 0 || volC == 0 {
		return 0, errors.New("spectral: cut has a zero-volume side")
	}
	cut := g.CutSize(member)
	minVol := volS
	if volC < minVol {
		minVol = volC
	}
	return float64(cut) / float64(minVol), nil
}

// ExactConductance returns the conductance Φ(G) of Equation (2) by
// enumerating every nonempty proper vertex subset. It returns ErrTooLarge for
// graphs with more than 22 vertices and ErrNoEdges if the graph has no edges.
// A disconnected graph (with edges) has conductance 0.
//
// Subsets are visited in Gray-code order, so each one differs from the last
// by a single vertex v. Neighbourhoods are kept as bitmaps, so |E(S, S̄)|
// changes by deg v - 2·|N(v) ∩ S| (one popcount) when v joins S and by the
// negation when it leaves. Every subset's value is the same expression over
// the same integers as CutConductance, so the minimum is exact to the bit.
func ExactConductance(g *graph.Graph) (float64, error) {
	n := g.N()
	if n > exactLimit {
		return 0, ErrTooLarge
	}
	if g.M() == 0 {
		return 0, ErrNoEdges
	}
	var adj [exactLimit]uint32 // adj[v] is N(v) as a bitmap
	for _, e := range g.Edges() {
		adj[e.U] |= 1 << uint(e.V)
		adj[e.V] |= 1 << uint(e.U)
	}
	totalVol := g.Volume()
	// An endpoint other than n-1 of any edge is a candidate on its own, so
	// best is finite at the end.
	best := math.Inf(1)
	var in uint32 // S as a bitmap
	volS, cut := 0, 0
	// Fix vertex n-1 outside S to halve the enumeration (S and S̄ give the
	// same conductance).
	for i := 1; i < 1<<uint(n-1); i++ {
		v := bits.TrailingZeros(uint(i))
		in ^= 1 << uint(v)
		sign := 2*int(in>>uint(v)&1) - 1 // +1 if v joined S, -1 if it left
		dv := g.Degree(v)
		volS += sign * dv
		cut += sign * (dv - 2*bits.OnesCount32(adj[v]&in))
		volC := totalVol - volS
		if volS == 0 || volC == 0 {
			continue
		}
		phi := float64(cut) / float64(min(volS, volC))
		if phi < best {
			best = phi
		}
	}
	return best, nil
}

// Estimate holds the result of the spectral conductance estimation.
type Estimate struct {
	// SweepConductance is the conductance of the best sweep cut; it is an
	// upper bound on Φ(G).
	SweepConductance float64
	// SpectralGap is 1 - λ2 of the normalized adjacency operator. By Cheeger's
	// inequality, SpectralGap/2 <= Φ(G) <= sqrt(2*SpectralGap).
	SpectralGap float64
	// LowerBound is SpectralGap/2.
	LowerBound float64
}

// EstimateConductance estimates Φ(G) for a connected graph using power
// iteration on the normalized adjacency matrix followed by a sweep cut.
// iterations controls the power-iteration length (64 is a reasonable default;
// pass 0 to use it). It returns ErrNoEdges for edgeless graphs.
func EstimateConductance(g *graph.Graph, iterations int) (Estimate, error) {
	if g.M() == 0 {
		return Estimate{}, ErrNoEdges
	}
	if iterations <= 0 {
		iterations = 64
	}
	lambda2, vec := secondEigen(g, iterations)
	gap := 1 - lambda2
	if gap < 0 {
		gap = 0
	}
	sweep := sweepCut(g, vec)
	return Estimate{SweepConductance: sweep, SpectralGap: gap, LowerBound: gap / 2}, nil
}

// secondEigen estimates the second-largest eigenvalue (and its eigenvector)
// of the normalized adjacency operator N = D^{-1/2} A D^{-1/2} using power
// iteration on the lazy operator (I+N)/2 with deflation of the known top
// eigenvector D^{1/2}·1.
func secondEigen(g *graph.Graph, iterations int) (float64, []float64) {
	n := g.N()
	sqrtDeg := make([]float64, n)
	for v := 0; v < n; v++ {
		sqrtDeg[v] = math.Sqrt(float64(g.Degree(v)))
	}
	// Top eigenvector of N (eigenvalue 1) is proportional to sqrtDeg.
	top := normalize(append([]float64(nil), sqrtDeg...))

	// Deterministic pseudo-random start vector (no global RNG dependency).
	x := make([]float64, n)
	state := uint64(0x243f6a8885a308d3)
	for v := 0; v < n; v++ {
		state = state*6364136223846793005 + 1442695040888963407
		x[v] = float64(int64(state>>33))/float64(1<<31) - 0.5
	}
	deflate(x, top)
	x = normalize(x)

	y := make([]float64, n)
	lambdaLazy := 0.0
	for it := 0; it < iterations; it++ {
		// y = (I + N)/2 * x  (lazy operator keeps eigenvalues in [0,1]).
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range g.Neighbors(v) {
				if sqrtDeg[u] > 0 {
					sum += x[u] / (sqrtDeg[v] * sqrtDeg[u])
				}
			}
			y[v] = 0.5*x[v] + 0.5*sum
		}
		deflate(y, top)
		norm := vectorNorm(y)
		if norm == 0 {
			// x was (numerically) in the span of the top eigenvector;
			// the graph is essentially complete from the walk's viewpoint.
			return 0, x
		}
		lambdaLazy = norm // after normalization of x, |y| approximates the eigenvalue
		for v := 0; v < n; v++ {
			x[v] = y[v] / norm
		}
	}
	// Lazy eigenvalue mu = (1+lambda)/2  =>  lambda = 2*mu - 1.
	lambda2 := 2*lambdaLazy - 1
	if lambda2 > 1 {
		lambda2 = 1
	}
	if lambda2 < -1 {
		lambda2 = -1
	}
	return lambda2, x
}

// sweepCut orders vertices by vec[v]/sqrt(deg(v)) and returns the best
// conductance among all prefix cuts.
func sweepCut(g *graph.Graph, vec []float64) float64 {
	n := g.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	score := make([]float64, n)
	for v := 0; v < n; v++ {
		d := float64(g.Degree(v))
		if d > 0 {
			score[v] = vec[v] / math.Sqrt(d)
		}
	}
	sort.Slice(order, func(i, j int) bool { return score[order[i]] < score[order[j]] })

	member := make([]bool, n)
	volS := 0
	cut := 0
	best := math.Inf(1)
	totalVol := g.Volume()
	for idx := 0; idx < n-1; idx++ {
		v := order[idx]
		member[v] = true
		volS += g.Degree(v)
		for _, u := range g.Neighbors(v) {
			if member[u] {
				cut-- // edge now internal
			} else {
				cut++ // new cut edge
			}
		}
		volC := totalVol - volS
		if volS == 0 || volC == 0 {
			continue
		}
		minVol := volS
		if volC < minVol {
			minVol = volC
		}
		phi := float64(cut) / float64(minVol)
		if phi < best {
			best = phi
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

func normalize(x []float64) []float64 {
	norm := vectorNorm(x)
	if norm == 0 {
		return x
	}
	for i := range x {
		x[i] /= norm
	}
	return x
}

func vectorNorm(x []float64) float64 {
	sum := 0.0
	for _, v := range x {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// deflate removes the component of x along the unit vector top.
func deflate(x, top []float64) {
	dot := 0.0
	for i := range x {
		dot += x[i] * top[i]
	}
	for i := range x {
		x[i] -= dot * top[i]
	}
}

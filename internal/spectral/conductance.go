// Package spectral computes graph conductance: exactly by a branch-and-bound
// search over cuts for graphs on at most 22 vertices, and approximately via
// the spectral gap of the normalized adjacency operator (Cheeger's
// inequality) with a sweep cut for larger graphs.
package spectral

import (
	"errors"
	"math"
	"math/bits"
	"sort"

	"dynamicrumor/internal/graph"
)

// ErrTooLarge is returned by ExactConductance for graphs beyond exactLimit
// vertices.
var ErrTooLarge = errors.New("spectral: graph too large for exact conductance")

// ErrNoEdges is returned when conductance is undefined (no edges).
var ErrNoEdges = errors.New("spectral: conductance undefined for a graph with no edges")

// exactLimit is the largest vertex count for which ExactConductance computes
// Φ(G); its vertex sets are uint32 bitmaps, so it can be at most 32. The
// search is exponential in the worst case (over a million partial
// assignments on dense graphs such as the complement of C_22) but far
// cheaper on the graphs the experiments measure. The limit is kept so that
// the same rows of the reproduced tables stay exact, and raising it is a
// deliberate change to those tables.
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

// ExactConductance returns the conductance Φ(G) of Equation (2), the least
// CutConductance over all cuts. It returns ErrTooLarge for graphs with more
// than 22 vertices and ErrNoEdges if the graph has no edges. A disconnected
// graph (with edges) has conductance 0.
//
// It searches the cuts by depth-first branch and bound. S and S̄ have the
// same conductance, so a highest-degree vertex is fixed outside S, and the
// others are assigned a side each in breadth-first order from it, each
// trying first the side that adds fewer cut edges. Assigning a vertex only
// adds cut edges, and the smaller side ends with at most the volume it has
// now plus the unassigned volume, so a partial assignment whose cut over
// that volume is no less than the best ratio so far cannot lower it and is
// dropped. Twins (u ≠ w with N(u)∖{w} = N(w)∖{u}) can swap sides without
// changing any cut, so a vertex whose nearest earlier twin is in S joins S
// too.
//
// The best cut is kept as an exact fraction of integers and divided once at
// the end. Rounding is monotone, so the result is the least CutConductance
// over every cut, to the bit.
func ExactConductance(g *graph.Graph) (float64, error) {
	var s cutSearch
	if err := s.run(g); err != nil {
		return 0, err
	}
	return float64(s.bestCut) / float64(s.bestVol), nil
}

// cutSearch is ExactConductance's branch and bound. A partial assignment
// gives a side to each of order[:i]: the bitmap in holds those in S, and
// the others, order[0] among them, are in S̄.
type cutSearch struct {
	n     int
	order [exactLimit]int        // the vertices in assignment order
	adj   [exactLimit]uint32     // adj[v] is N(v) as a bitmap
	deg   [exactLimit]int        // deg[v] is the degree of v
	twin  [exactLimit]uint32     // twin[i] holds order[i]'s nearest earlier twin, or is 0
	done  [exactLimit + 1]uint32 // done[i] is order[:i] as a bitmap
	rest  [exactLimit + 1]int    // rest[i] is the volume of order[i:]
	vol   int                    // vol(G)
	// bestCut/bestVol is the least cut/min-volume found so far; 1/0 stands
	// for none yet and loses every comparison.
	bestCut, bestVol int
	nodes            int // the partial assignments visited, which the tests bound
}

// run searches g's cuts for the least conductance.
func (s *cutSearch) run(g *graph.Graph) error {
	n := g.N()
	if n > exactLimit {
		return ErrTooLarge
	}
	if g.M() == 0 {
		return ErrNoEdges
	}
	s.n, s.vol, s.bestCut = n, g.Volume(), 1
	root := 0
	for v := range n {
		for _, u := range g.Neighbors(v) {
			s.adj[v] |= 1 << uint(u)
		}
		s.deg[v] = g.Degree(v)
		if s.deg[v] > s.deg[root] {
			root = v
		}
	}
	// Breadth-first order from root; a component left unreached starts
	// again from its lowest vertex.
	s.order[0] = root
	seen := uint32(1) << uint(root)
	for head, tail := 0, 1; head < n; head++ {
		if head == tail {
			v := bits.TrailingZeros32(^seen)
			s.order[tail], seen, tail = v, seen|1<<uint(v), tail+1
		}
		for next := s.adj[s.order[head]] &^ seen; next != 0; next &= next - 1 {
			v := bits.TrailingZeros32(next)
			s.order[tail], seen, tail = v, seen|1<<uint(v), tail+1
		}
	}
	s.rest[0] = s.vol
	for i, v := range s.order[:n] {
		s.done[i+1] = s.done[i] | 1<<uint(v)
		s.rest[i+1] = s.rest[i] - s.deg[v]
		for j := i - 1; j >= 0 && s.twin[i] == 0; j-- {
			if w := s.order[j]; s.adj[v]&^(1<<uint(w)) == s.adj[w]&^(1<<uint(v)) {
				s.twin[i] = 1 << uint(w)
			}
		}
	}
	s.visit(1, 0, 0, 0)
	return nil
}

// visit extends a partial assignment of order[:i], with S = in of volume
// volS and cut edges cut, to every completion that beats the best cut.
func (s *cutSearch) visit(i int, in uint32, volS, cut int) {
	s.nodes++
	if i == s.n { // a complete cut that passed try's bound beats the best
		s.bestCut, s.bestVol = cut, min(volS, s.vol-volS)
		return
	}
	v := s.order[i]
	d := s.deg[v]
	volT := s.vol - s.rest[i] - volS
	// Joining a side cuts v's edges to the other one.
	cutS := cut + bits.OnesCount32(s.adj[v]&(s.done[i]&^in))
	cutT := cut + bits.OnesCount32(s.adj[v]&in)
	inS := in | 1<<uint(v)
	switch {
	case in&s.twin[i] != 0: // v's nearest earlier twin is in S
		s.try(i+1, inS, volS+d, volT, cutS)
	case cutS < cutT:
		s.try(i+1, inS, volS+d, volT, cutS)
		s.try(i+1, in, volS, volT+d, cutT)
	default:
		s.try(i+1, in, volS, volT+d, cutT)
		s.try(i+1, inS, volS+d, volT, cutS)
	}
}

// try visits the partial assignment of order[:i] with S = in, side volumes
// volS and volT and cut edges cut, unless it cannot beat the best cut: the
// cut only grows, and the smaller side ends with at most min(volS, volT)
// plus the unassigned volume.
func (s *cutSearch) try(i int, in uint32, volS, volT, cut int) {
	if cut*s.bestVol < s.bestCut*(min(volS, volT)+s.rest[i]) {
		s.visit(i, in, volS, cut)
	}
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

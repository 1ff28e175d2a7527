// Package diligence implements the graph parameters introduced by the paper:
// the diligence ρ(G) (Equation 4), the per-cut diligence ρ(S), and the
// absolute diligence ρ̄(G).
//
// For a connected simple graph G = (V, E) and a vertex set S with
// 0 < vol(S) <= vol(G)/2,
//
//	ρ(S)  = min_{ {u,v} ∈ E(S,S̄) } max(d̄(S)/d_u, d̄(S)/d_v)
//	ρ(G)  = min over all such S of ρ(S)
//	ρ̄(G) = min_{ {u,v} ∈ E } max(1/d_u, 1/d_v)
//
// where d̄(S) = vol(S)/|S| is the average degree of S. ρ(G) = 0 when G is
// disconnected and ρ̄(G) = 0 when G has no edges, following the paper's
// conventions.
package diligence

import (
	"errors"
	"math"
	"slices"

	"dynamicrumor/internal/graph"
)

// ErrTooLarge is returned by Exact for graphs beyond exactLimit vertices.
var ErrTooLarge = errors.New("diligence: graph too large for exact diligence")

// exactLimit is the largest vertex count for which Exact computes ρ(G).
// Exact is polynomial, so the limit no longer reflects its cost: it is kept
// so that the same rows of the reproduced tables stay exact, and raising it
// is a deliberate change to those tables.
const exactLimit = 22

// Absolute returns the absolute diligence ρ̄(G) = min over edges of
// max(1/du, 1/dv), or 0 if the graph has no edges. This runs in O(m).
func Absolute(g *graph.Graph) float64 {
	if g.M() == 0 {
		return 0
	}
	// max(1/du, 1/dv) = 1 / min(du, dv), so the minimizing edge maximizes
	// min(du, dv).
	worst := 0
	for u := range g.N() {
		du := g.Degree(u)
		for _, v := range g.Neighbors(u) {
			worst = max(worst, min(du, g.Degree(int(v))))
		}
	}
	return 1 / float64(worst)
}

// OfCut returns the diligence ρ(S) of the cut defined by the vertices marked
// true in member, using the convention that S is the side passed in (callers
// that follow the paper should pass the side with the smaller volume).
// It returns 0 if the cut has no crossing edges or S is empty.
func OfCut(g *graph.Graph, member []bool) float64 {
	size := 0
	vol := 0
	for v, in := range member {
		if in {
			size++
			vol += g.Degree(v)
		}
	}
	if size == 0 || vol == 0 {
		return 0
	}
	avg := float64(vol) / float64(size)
	// min over cut edges of avg/min(du,dv) = avg / max over cut edges of min(du,dv).
	// Every cut edge scores at least 1, so worst stays 0 only without one.
	worst := 0
	for u, in := range member {
		du := g.Degree(u)
		for _, v := range g.Neighbors(u) {
			if member[v] != in {
				worst = max(worst, min(du, g.Degree(int(v))))
			}
		}
	}
	if worst == 0 {
		return 0
	}
	return avg / float64(worst)
}

// Exact returns the diligence ρ(G) of Equation (4), the least ρ(S) over
// vertex sets S with 0 < vol(S) <= vol(G)/2. It returns ErrTooLarge for
// graphs with more than 22 vertices. Disconnected graphs have diligence 0.
//
// It runs in O(m·n) time, without enumerating cuts. ρ(S) = d̄(S)/k(S), where
// k(S) is the largest min(d_u, d_v) over S's cut edges, so every cut edge
// (u ∈ S, v ∉ S) gives d̄(S)/min(d_u, d_v) >= ρ(S), with equality on the edge
// that attains k(S). Hence ρ(G) is the least d̄(S)/min(d_u, d_v) over
// oriented edges (u, v) and sets S that hold u, leave out v and fit the
// volume cap. For a fixed (u, v) and size, u plus the lowest-degree vertices
// other than u and v has the least volume, so it is the best set of that
// size and the last to exceed the cap. Adding vertices in order of degree
// lowers the average until the next degree reaches it, and the volume only
// grows, so one pass over the degree-sorted vertices finds the best S.
//
// OfCut evaluates ρ(S) as fl(fl(vol/size)/k(S)). Rounding is monotone, so a
// candidate scored at a level k = min(d_u, d_v) below k(S) is never less
// than ρ(S), and the least value at a level comes from the least vol/size
// there. That fraction is kept exactly per level and divided once at the
// end, and the result equals the per-subset minimum to the bit.
func Exact(g *graph.Graph) (float64, error) {
	n := g.N()
	if n > exactLimit {
		return 0, ErrTooLarge
	}
	if !g.IsConnected() || g.M() == 0 {
		return 0, nil
	}
	var byDegree [exactLimit]int // the vertices by nondecreasing degree
	for v := range n {
		byDegree[v] = v
	}
	slices.SortFunc(byDegree[:n], func(a, b int) int { return g.Degree(a) - g.Degree(b) })
	totalVol := g.Volume()
	// bestVol[k]/bestSize[k] is the least vol/size scored at level k; 1/0
	// stands for none yet and loses every comparison.
	var bestVol, bestSize [exactLimit]int
	for k := range bestVol {
		bestVol[k] = 1
	}
	for u := range n {
		du := g.Degree(u)
		for _, v32 := range g.Neighbors(u) {
			v := int(v32)
			// {u} fits the cap, because d_u <= m.
			vol, size := du, 1
			for _, w := range byDegree[:n] {
				if w == u || w == v { // S leaves out v, so (u, v) is a cut edge
					continue
				}
				dw := g.Degree(w)
				if dw*size >= vol || 2*(vol+dw) > totalVol {
					break
				}
				vol, size = vol+dw, size+1
			}
			if k := min(du, g.Degree(v)); vol*bestSize[k] < bestVol[k]*size {
				bestVol[k], bestSize[k] = vol, size
			}
		}
	}
	best := math.Inf(1)
	for k, s := range bestSize {
		if s > 0 {
			best = min(best, float64(bestVol[k])/float64(s)/float64(k))
		}
	}
	return best, nil
}

// Bounds returns the universal bounds of the paper, 1/(n-1) <= ρ(G) <= 1,
// for a connected graph on n >= 2 vertices. These are useful for property
// tests and for the O(n²) corollary (Remark 1.4).
func Bounds(n int) (lo, hi float64) {
	if n < 2 {
		return 0, 1
	}
	return 1 / float64(n-1), 1
}

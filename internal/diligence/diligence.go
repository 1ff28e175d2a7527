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
	"math/bits"

	"dynamicrumor/internal/graph"
)

// ErrTooLarge is returned by Exact for graphs beyond the enumeration limit.
var ErrTooLarge = errors.New("diligence: graph too large for exact diligence")

// exactLimit is the largest vertex count for which Exact enumerates all cuts.
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
	for _, e := range g.Edges() {
		m := g.Degree(e.U)
		if d := g.Degree(e.V); d < m {
			m = d
		}
		if m > worst {
			worst = m
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
	worst := 0
	found := false
	for _, e := range g.Edges() {
		if member[e.U] == member[e.V] {
			continue
		}
		found = true
		m := g.Degree(e.U)
		if d := g.Degree(e.V); d < m {
			m = d
		}
		if m > worst {
			worst = m
		}
	}
	if !found {
		return 0
	}
	return avg / float64(worst)
}

// Exact returns the diligence ρ(G) of Equation (4) by enumerating every
// vertex subset S with 0 < vol(S) <= vol(G)/2. It returns ErrTooLarge for
// graphs with more than 22 vertices. Disconnected graphs have diligence 0.
//
// Subsets are visited in Gray-code order, so each one differs from the last
// by a single vertex v and |S|, vol(S) and the cut update in O(deg v). The
// cut is kept as cutAt[k], the number of crossing edges whose smaller
// endpoint degree is k, so OfCut's worst edge is the highest non-empty
// level. Every subset's value is the same expression over the same integers
// as OfCut, so the minimum is exact to the bit.
func Exact(g *graph.Graph) (float64, error) {
	n := g.N()
	if n > exactLimit {
		return 0, ErrTooLarge
	}
	if !g.IsConnected() || g.M() == 0 {
		return 0, nil
	}
	totalVol := g.Volume()
	best := math.Inf(1)
	cutAt := make([]int, g.MaxDegree()+1)
	var levels uint32 // bit k set iff cutAt[k] > 0; degrees are below 32
	var in uint32     // S as a bitmap
	size, vol := 0, 0
	for i := 1; i < 1<<uint(n); i++ {
		v := bits.TrailingZeros(uint(i))
		in ^= 1 << uint(v)
		side := in >> uint(v) & 1
		dv := g.Degree(v)
		if side == 1 {
			size++
			vol += dv
		} else {
			size--
			vol -= dv
		}
		// Flipping v flips whether each of its edges crosses the cut. The
		// updates are branch-free because a crossing is a coin flip to the
		// branch predictor: cross is 1 iff {v, u} crosses after the flip,
		// and c|-c is negative iff c != 0.
		for _, u := range g.Neighbors(v) {
			k := min(dv, g.Degree(u))
			cross := int(in>>uint(u)&1 ^ side)
			c := cutAt[k] + 2*cross - 1
			cutAt[k] = c
			levels = levels&^(1<<uint(k)) | uint32(uint64(c|-c)>>63)<<uint(k)
		}
		if 2*vol > totalVol || levels == 0 {
			continue
		}
		worst := bits.Len32(levels) - 1
		rho := float64(vol) / float64(size) / float64(worst)
		if rho < best {
			best = rho
		}
	}
	if math.IsInf(best, 1) {
		// No subset had vol(S) <= vol/2 other than trivial ones; this happens
		// only for degenerate graphs (e.g. a single edge where each side has
		// exactly half the volume is still enumerated, so this is a safety
		// net). Fall back to the star-like bound ρ = 1.
		return 1, nil
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

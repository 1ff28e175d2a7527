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
// Every cut {T, T̄} is visited once, as the side T that leaves out vertex
// n-1, in Gray-code order, so each T differs from the last by a single
// vertex v. T is scored when 2·vol(T) <= vol(G) and T̄, with its own size,
// when 2·vol(T) >= vol(G), both at a tie: every side with vol <= vol(G)/2.
// The cut is kept as cutAt[k], the number of crossing edges whose smaller
// endpoint degree is k, so OfCut's worst edge is the highest non-empty
// level. v's neighbours are grouped into one bitmap per level, so a flip
// updates each level with one popcount.
//
// A scored side's value is fl(fl(vol/size)/k) at its worst level k, the
// expression OfCut evaluates. Rounding is monotone, so the least value at a
// level comes from the least vol/size there; that fraction is kept exactly
// per level and divided once at the end, and the result is exact to the bit.
func Exact(g *graph.Graph) (float64, error) {
	n := g.N()
	if n > exactLimit {
		return 0, ErrTooLarge
	}
	if !g.IsConnected() || g.M() == 0 {
		return 0, nil
	}
	// levels[start[v]:start[v+1]] groups v's neighbours u by level
	// k = min(d_v, d_u): mask holds a level's neighbours and count their
	// number.
	type level struct {
		k, count int
		mask     uint32
	}
	var start [exactLimit + 1]int
	levels := make([]level, 0, 2*g.M()) // at most one entry per edge end
	for v := 0; v < n; v++ {
		var byLevel [exactLimit]uint32 // degrees are below n <= 22
		dv := g.Degree(v)
		for _, u := range g.Neighbors(v) {
			byLevel[min(dv, g.Degree(u))] |= 1 << uint(u)
		}
		for k, mask := range byLevel {
			if mask != 0 {
				levels = append(levels, level{k, bits.OnesCount32(mask), mask})
			}
		}
		start[v+1] = len(levels)
	}
	totalVol := g.Volume()
	var cutAt [exactLimit]int
	var nonEmpty uint32 // bit k set iff cutAt[k] > 0
	// bestVol[k]/bestSize[k] is the least vol/size scored at worst level k;
	// 1/0 stands for none yet and loses every comparison.
	var bestVol, bestSize [exactLimit]int
	for k := range bestVol {
		bestVol[k] = 1
	}
	var in uint32 // T as a bitmap
	size, vol := 0, 0
	for i := 1; i < 1<<uint(n-1); i++ {
		v := bits.TrailingZeros(uint(i))
		in ^= 1 << uint(v)
		sign := 2*int(in>>uint(v)&1) - 1 // +1 if v joined T, -1 if it left
		size += sign
		vol += sign * g.Degree(v)
		// After the flip, v's edge to u crosses iff u is on the other side.
		other := ^in
		if sign < 0 {
			other = in
		}
		// A level gains its crossing edges and loses the rest; c|-c is
		// negative iff c != 0.
		for _, l := range levels[start[v]:start[v+1]] {
			c := cutAt[l.k] + 2*bits.OnesCount32(l.mask&other) - l.count
			cutAt[l.k] = c
			nonEmpty = nonEmpty&^(1<<uint(l.k)) | uint32(uint64(c|-c)>>63)<<uint(l.k)
		}
		// G is connected, so every cut has a crossing edge.
		k := bits.Len32(nonEmpty) - 1
		if 2*vol <= totalVol && vol*bestSize[k] < bestVol[k]*size {
			bestVol[k], bestSize[k] = vol, size
		}
		if volC, sizeC := totalVol-vol, n-size; 2*vol >= totalVol && volC*bestSize[k] < bestVol[k]*sizeC {
			bestVol[k], bestSize[k] = volC, sizeC
		}
	}
	// G has an edge, so n >= 2 and the walk scored at least one side.
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

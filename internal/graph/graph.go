// Package graph implements the static undirected simple graphs on which the
// rumor-spreading processes run: adjacency structure, degrees, volumes, cut
// sets and basic traversals.
//
// Vertices are the integers 0..n-1, with n at most math.MaxInt32. A Graph is
// one compressed sparse row (CSR) layout and nothing else: per-vertex
// offsets into one array of sorted int32 neighbor ids, plus int32 degrees.
// Edge lists are derived from it on demand (AppendEdges). Graphs are
// immutable after Build; the dynamic-network packages expose a fresh *Graph
// per time step (possibly recycling the backing arrays of a retired step via
// Builder.BuildInto).
package graph

import (
	"fmt"
	"math"
	"slices"
)

// Edge is an undirected edge {U, V} with U < V in canonical form.
type Edge struct {
	U, V int
}

// Canonical returns the edge with endpoints ordered U <= V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Builder accumulates edges and produces an immutable Graph.
//
// The builder is allocation-free in steady state. AddEdge appends each edge
// as one packed key u<<32|v (u < v) to a reusable buffer, duplicates and
// all. Build sorts the keys with two stable counting-sort passes over vertex
// ids through one scratch buffer — no hash map, no comparison sort — drops
// duplicates in place and scatters the survivors straight into the graph's
// adjacency. Reset recycles the builder (and its scratch) for the next
// graph, which is what the dynamic networks do every time step.
type Builder struct {
	n     int
	keys  []uint64 // u<<32|v with u < v for every added edge; duplicates allowed until Build
	tmp   []uint64 // counting-sort scratch, as long as keys
	count []int    // counting-sort histogram and adjacency fill cursor, one slot per vertex
}

// checkVertexCount panics unless 0 <= n <= math.MaxInt32, the range the
// int32 neighbor ids cover. It allocates nothing.
func checkVertexCount(n int) {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	if n > math.MaxInt32 {
		panic("graph: vertex count exceeds math.MaxInt32")
	}
}

// NewBuilder returns a builder for a graph on n vertices.
// It panics if n < 0 or n > math.MaxInt32.
func NewBuilder(n int) *Builder {
	checkVertexCount(n)
	return &Builder{n: n}
}

// Reset re-targets the builder to a graph on n vertices, dropping all pending
// edges while keeping the internal buffers for reuse. It panics if n < 0 or
// n > math.MaxInt32.
func (b *Builder) Reset(n int) {
	checkVertexCount(n)
	b.n = n
	b.keys = b.keys[:0]
}

// Grow reserves room for at least edges additional AddEdge calls, so a
// caller that knows the emission volume up front (the paper constructions
// do) skips the append doubling series on a cold builder. A count below one
// reserves nothing.
func (b *Builder) Grow(edges int) {
	if edges > 0 {
		b.keys = slices.Grow(b.keys, edges)
	}
}

// AddEdge records the undirected edge {u, v}. Self-loops and duplicate edges
// are ignored (the graph is simple). It panics if either endpoint is out of
// range.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", u, v, b.n))
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.keys = append(b.keys, uint64(u)<<32|uint64(v))
}

// HasEdge reports whether {u,v} has been added. It scans the pending edge
// buffer in O(edges added); callers that need many membership queries during
// construction should keep their own bitmap.
func (b *Builder) HasEdge(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	return u >= 0 && v < b.n && slices.Contains(b.keys, uint64(u)<<32|uint64(v))
}

// NumEdges returns the number of distinct edges added so far. Like Build it
// runs the counting-sort dedup pass, so it is O(n + edges added).
func (b *Builder) NumEdges() int {
	b.sortUnique()
	return len(b.keys)
}

// Build produces the immutable graph. The builder remains usable and keeps
// its accumulated edges.
func (b *Builder) Build() *Graph { return b.BuildInto(nil) }

// BuildInto is Build recycling the backing arrays of dst (which must no
// longer be in use) instead of allocating fresh ones when their capacity
// suffices. A nil dst behaves like Build. It returns the built graph (dst
// itself when dst is non-nil).
//
// Dynamic networks use this with two alternating buffers so that a steady
// stream of rebuilt graphs allocates nothing, while the graph returned for
// step t stays valid until the rebuild for step t+2.
//
// Neighbor lists come out sorted without an explicit sort: scattering the
// sorted keys in (U, V) order appends the below-v neighbors of every vertex
// v in increasing U order first and the above-v neighbors in increasing V
// order after them.
func (b *Builder) BuildInto(dst *Graph) *Graph {
	b.sortUnique()
	n := b.n
	if dst == nil {
		dst = &Graph{}
	}
	dst.n = n
	dst.degree = resize(dst.degree, n)
	clear(dst.degree)
	for _, k := range b.keys {
		dst.degree[k>>32]++
		dst.degree[uint32(k)]++
	}
	dst.adjOff = resize(dst.adjOff, n+1)
	dst.adjOff[0] = 0
	for v, d := range dst.degree {
		dst.adjOff[v+1] = dst.adjOff[v] + int(d)
	}
	dst.adj = resize(dst.adj, 2*len(b.keys))
	next := b.count[:n] // the fill cursor of every neighbor list
	copy(next, dst.adjOff)
	for _, k := range b.keys {
		u, v := k>>32, uint32(k)
		dst.adj[next[u]] = int32(v)
		next[u]++
		dst.adj[next[v]] = int32(u)
		next[v]++
	}
	return dst
}

// sortUnique sorts the pending keys by (U, V) with two stable counting-sort
// passes, by V into tmp and then by U back into keys, and truncates keys to
// its distinct entries.
func (b *Builder) sortUnique() {
	b.count = resize(b.count, b.n)
	b.tmp = resize(b.tmp, len(b.keys))
	countingSort(b.tmp, b.keys, b.count, 0)
	countingSort(b.keys, b.tmp, b.count, 32)
	uniq := 0
	for i, k := range b.keys {
		if i > 0 && k == b.keys[i-1] {
			continue
		}
		b.keys[uniq] = k
		uniq++
	}
	b.keys = b.keys[:uniq]
}

// countingSort stably sorts src into dst by the vertex id uint32(k>>shift),
// using count (one slot per vertex) as its histogram.
func countingSort(dst, src []uint64, count []int, shift uint) {
	clear(count)
	for _, k := range src {
		count[uint32(k>>shift)]++
	}
	sum := 0
	for v, c := range count {
		count[v] = sum
		sum += c
	}
	for _, k := range src {
		v := uint32(k >> shift)
		dst[count[v]] = k
		count[v]++
	}
}

// resize returns s resized to length n, reusing its capacity when possible
// and growing amortized (append-style) otherwise. Contents are unspecified.
func resize[E any](s []E, n int) []E {
	if cap(s) >= n {
		return s[:n]
	}
	return append(s[:cap(s)], make([]E, n-cap(s))...)
}

// Graph is an immutable undirected simple graph in compressed sparse row
// form: the neighbors of v are adj[adjOff[v]:adjOff[v+1]], sorted.
type Graph struct {
	n      int
	adjOff []int   // adjacency offsets, length n+1
	adj    []int32 // concatenated sorted neighbor lists, length 2m
	degree []int32
}

// FromEdges builds a graph on n vertices from a list of edges. Duplicate
// edges and self-loops are removed. It panics if any endpoint is out of range.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	b.Grow(len(edges))
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// StarInto builds the star K_{1,n-1} with the given center directly in
// compressed form, recycling dst's backing arrays (nil dst allocates a fresh
// graph). It produces exactly the graph the builder would for the same edge
// set, but in one O(n) fill with no counting-sort passes, which makes it the
// rebuild primitive of the dynamic-star adversary where the star is
// re-emitted every time step. It panics if n > math.MaxInt32 or center is
// out of range.
func StarInto(dst *Graph, n, center int) *Graph {
	checkVertexCount(n)
	if center < 0 || center >= n {
		panic(fmt.Sprintf("graph: star center %d out of range for n=%d", center, n))
	}
	if dst == nil {
		dst = &Graph{}
	}
	m := n - 1
	dst.n = n
	dst.degree = resize(dst.degree, n)
	dst.adjOff = resize(dst.adjOff, n+1)
	dst.adj = resize(dst.adj, 2*m)
	// Every leaf's neighbor list is [center]; the center's list is every
	// other vertex in increasing order.
	off := 0
	for v := 0; v < n; v++ {
		dst.adjOff[v] = off
		if v == center {
			dst.degree[v] = int32(m)
			for u := 0; u < n; u++ {
				if u != center {
					dst.adj[off] = int32(u)
					off++
				}
			}
		} else {
			dst.degree[v] = 1
			dst.adj[off] = int32(center)
			off++
		}
	}
	dst.adjOff[n] = off
	return dst
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return int(g.degree[v]) }

// Volume returns the sum of all degrees, i.e. 2*M().
func (g *Graph) Volume() int { return len(g.adj) }

// Neighbors returns the sorted neighbor list of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.adjOff[v]:g.adjOff[v+1]]
}

// Neighbor returns the i-th neighbor of v (0-based, in sorted order).
func (g *Graph) Neighbor(v, i int) int {
	return int(g.adj[g.adjOff[v]+i])
}

// CSR returns the compressed adjacency itself: the neighbors of v are
// adj[off[v]:off[v+1]], sorted. Two graphs are equal exactly when both
// slices are. The slices alias internal storage and must not be modified.
func (g *Graph) CSR() (off []int, adj []int32) { return g.adjOff, g.adj }

// AppendEdges appends every edge in canonical sorted order (by U, then V) to
// dst and returns the extended slice.
func (g *Graph) AppendEdges(dst []Edge) []Edge {
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				dst = append(dst, Edge{U: u, V: int(v)})
			}
		}
	}
	return dst
}

// HasEdge reports whether {u,v} is an edge (binary search over the sorted
// neighbor list of the lower-degree endpoint).
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	if g.degree[u] > g.degree[v] {
		u, v = v, u
	}
	_, found := slices.BinarySearch(g.Neighbors(u), int32(v))
	return found
}

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	if g.n == 0 {
		return 0
	}
	return int(slices.Max(g.degree))
}

// MinDegree returns the minimum vertex degree (0 for a graph with no
// vertices).
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	return int(slices.Min(g.degree))
}

// AverageDegree returns Volume()/N() (0 for an empty graph).
func (g *Graph) AverageDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.Volume()) / float64(g.n)
}

// IsRegular reports whether every vertex has the same degree, and that degree.
func (g *Graph) IsRegular() (bool, int) {
	if g.n == 0 {
		return true, 0
	}
	d := g.degree[0]
	for _, dd := range g.degree[1:] {
		if dd != d {
			return false, 0
		}
	}
	return true, int(d)
}

// VolumeOf returns the sum of degrees over the vertices marked true in member.
// member must have length N().
func (g *Graph) VolumeOf(member []bool) int {
	vol := 0
	for v, in := range member {
		if in {
			vol += int(g.degree[v])
		}
	}
	return vol
}

// AppendCutEdges appends the edges with exactly one endpoint in the set
// marked true in member to dst, in canonical sorted order, and returns the
// extended slice. member must have length N(). Callers that re-derive cuts
// per step pass a recycled dst to keep the scan allocation-free.
func (g *Graph) AppendCutEdges(dst []Edge, member []bool) []Edge {
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u && member[u] != member[v] {
				dst = append(dst, Edge{U: u, V: int(v)})
			}
		}
	}
	return dst
}

// CutEdges returns the edges with exactly one endpoint in the set marked true
// in member. member must have length N().
func (g *Graph) CutEdges(member []bool) []Edge {
	return g.AppendCutEdges(nil, member)
}

// CutSize returns the number of edges crossing the set marked true in member.
func (g *Graph) CutSize(member []bool) int {
	count := 0
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u && member[u] != member[v] {
				count++
			}
		}
	}
	return count
}

// InducedSubgraph returns the subgraph induced by the vertices marked true in
// member, together with the mapping from new vertex ids to original ids.
//
// The renumbering is monotone, so every surviving neighbor list stays sorted
// and the subgraph is assembled directly in compressed form.
func (g *Graph) InducedSubgraph(member []bool) (*Graph, []int) {
	oldToNew := make([]int32, g.n)
	var newToOld []int
	for v := 0; v < g.n; v++ {
		if member[v] {
			oldToNew[v] = int32(len(newToOld))
			newToOld = append(newToOld, v)
		}
	}
	n := len(newToOld)
	sub := &Graph{n: n, adjOff: make([]int, n+1), degree: make([]int32, n)}
	for i, v := range newToOld {
		for _, u := range g.Neighbors(v) {
			if member[u] {
				sub.adj = append(sub.adj, oldToNew[u])
			}
		}
		sub.adjOff[i+1] = len(sub.adj)
		sub.degree[i] = int32(sub.adjOff[i+1] - sub.adjOff[i])
	}
	return sub, newToOld
}

// Validate checks internal invariants; it returns a descriptive error if any
// is violated. A nil error means the structure is consistent.
func (g *Graph) Validate() error {
	if len(g.degree) != g.n || len(g.adjOff) != g.n+1 || g.adjOff[0] != 0 || g.adjOff[g.n] != len(g.adj) {
		return fmt.Errorf("graph: inconsistent slice lengths")
	}
	for v := 0; v < g.n; v++ {
		if g.adjOff[v+1]-g.adjOff[v] != int(g.degree[v]) {
			return fmt.Errorf("graph: adjacency offsets disagree with degree at %d", v)
		}
		nb := g.Neighbors(v)
		for i, u := range nb {
			if int(u) == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if i > 0 && nb[i-1] >= u {
				return fmt.Errorf("graph: neighbor list of %d not strictly sorted", v)
			}
			if !g.HasEdge(int(u), v) {
				return fmt.Errorf("graph: asymmetric adjacency %d-%d", v, u)
			}
		}
	}
	return nil
}

package graph

// BFS runs a breadth-first search from source and returns the distance (in
// hops) to every vertex, with -1 for unreachable vertices.
func (g *Graph) BFS(source int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if source < 0 || source >= g.n {
		return dist
	}
	dist[source] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, source)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, int(u))
			}
		}
	}
	return dist
}

// IsConnected reports whether the graph is connected. Graphs with zero or one
// vertex are connected; a graph with isolated vertices is not.
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}

// Components returns the connected components as a vertex labelling
// (component id per vertex, ids are 0..k-1 in order of discovery) and the
// number of components.
func (g *Graph) Components() ([]int, int) {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	for s := 0; s < g.n; s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = next
		stack := []int{s}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range g.Neighbors(v) {
				if comp[u] == -1 {
					comp[u] = next
					stack = append(stack, int(u))
				}
			}
		}
		next++
	}
	return comp, next
}

// Diameter returns the largest shortest-path distance between any two
// vertices. It returns -1 if the graph is disconnected or has no vertices.
// This is an O(n·m) computation intended for tests and small graphs.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return -1
	}
	diam := 0
	for s := 0; s < g.n; s++ {
		dist := g.BFS(s)
		for _, d := range dist {
			if d == -1 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

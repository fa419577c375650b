package graph

// BFSDistances returns the hop distance from src to every vertex, or -1 for
// vertices unreachable from src.
func (g *Graph) BFSDistances(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.n {
		return dist
	}
	dist[src] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Adj(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, int(u))
			}
		}
	}
	return dist
}

// Connected reports whether the graph is connected. The empty graph and the
// single-vertex graph are connected. The search from vertex 0 keeps a visited
// bitset and an int32 queue, about 4.1 bytes per vertex: the generator calls
// it on every placement it tries.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	visited := make([]uint64, (g.n+63)/64)
	queue := make([]int32, 1, g.n)
	visited[0] = 1
	for head := 0; head < len(queue); head++ {
		for _, u := range g.Adj(int(queue[head])) {
			if bit := uint64(1) << (u & 63); visited[u>>6]&bit == 0 {
				visited[u>>6] |= bit
				queue = append(queue, u)
			}
		}
	}
	return len(queue) == g.n
}

// Components returns a label per vertex such that two vertices share a label
// iff they are in the same connected component, together with the number of
// components. Labels are assigned in increasing order of the smallest vertex
// in each component.
func (g *Graph) Components() (labels []int, count int) {
	labels = make([]int, g.n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int
	for v := 0; v < g.n; v++ {
		if labels[v] >= 0 {
			continue
		}
		labels[v] = count
		queue = append(queue[:0], v)
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, u := range g.Adj(x) {
				if labels[u] < 0 {
					labels[u] = count
					queue = append(queue, int(u))
				}
			}
		}
		count++
	}
	return labels, count
}

// KHopNeighbors returns Nk(v): every vertex within k hops of v, including v
// itself, in ascending order. k <= 0 yields {v}.
func (g *Graph) KHopNeighbors(v, k int) []int {
	dist := g.boundedDistances(v, k)
	out := make([]int, 0, g.n)
	for u, d := range dist {
		if d >= 0 {
			out = append(out, u)
		}
	}
	return out
}

// LocalView returns the k-hop local view Gk(v) of Definition 2: the vertex
// set is Nk(v) and the edge set is E ∩ (Nk-1(v) × Nk(v)); links between two
// vertices both exactly k hops from v are excluded. The result is a graph on
// the same vertex numbering with only the view's edges, plus a visibility
// mask marking the members of Nk(v).
//
// k <= 0 yields the global view: g itself, which no one can change, with
// all vertices visible even if unreachable. Any positive k is a BFS-bounded
// view that only ever contains reachable vertices.
func (g *Graph) LocalView(v, k int) (sub *Graph, visible []bool) {
	visible = make([]bool, g.n)
	if k <= 0 {
		for i := range visible {
			visible[i] = true
		}
		return g, visible
	}
	dist := g.boundedDistances(v, k)
	var edges [][2]int
	for u, du := range dist {
		if du < 0 {
			continue
		}
		visible[u] = true
		for _, w := range g.Adj(u) {
			if int(w) <= u {
				continue
			}
			dw := dist[w]
			if dw < 0 {
				continue
			}
			// Edge {u,w} is in Ek(v) iff at least one endpoint is within
			// k-1 hops.
			if du <= k-1 || dw <= k-1 {
				edges = append(edges, [2]int{u, int(w)})
			}
		}
	}
	// The edges are distinct links of g between valid vertices.
	sub, _ = FromEdges(g.n, edges)
	return sub, visible
}

// boundedDistances is BFS from src cut off beyond k hops; unreachable or
// too-far vertices get -1.
func (g *Graph) boundedDistances(src, k int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.n {
		return dist
	}
	dist[src] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dist[v] >= k {
			continue
		}
		for _, u := range g.Adj(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, int(u))
			}
		}
	}
	return dist
}

// Package graph provides the undirected-graph substrate used throughout the
// broadcast framework: adjacency-set graphs, traversal, connectivity,
// connected components, k-hop neighborhoods and the k-hop local-view
// subgraphs of Definition 2 in the paper.
package graph

import (
	"fmt"
	"sort"
)

// Graph is a simple undirected graph on vertices 0..N()-1.
//
// Neighbor lists are kept sorted in ascending vertex order, which makes all
// traversal deterministic. The zero value is not usable; construct with New.
type Graph struct {
	n   int
	adj [][]int
	m   int // number of edges
}

// New returns an empty graph with n vertices and no edges.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{
		n:   n,
		adj: make([][]int, n),
	}
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		n:   g.n,
		adj: make([][]int, g.n),
		m:   g.m,
	}
	for v, nbrs := range g.adj {
		c.adj[v] = append([]int(nil), nbrs...)
	}
	return c
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns a copy of v's neighbor list in ascending order.
func (g *Graph) Neighbors(v int) []int {
	return append([]int(nil), g.adj[v]...)
}

// ForEachNeighbor calls fn for every neighbor of v in ascending order. It
// avoids the copy made by Neighbors and is intended for hot paths.
func (g *Graph) ForEachNeighbor(v int, fn func(u int)) {
	for _, u := range g.adj[v] {
		fn(u)
	}
}

// Adj returns v's neighbor list in ascending order without copying it. The
// slice is owned by the graph and must not be mutated; it is for hot loops
// that ForEachNeighbor's callback would slow down.
func (g *Graph) Adj(v int) []int { return g.adj[v] }

// HasEdge reports whether the edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return false
	}
	if len(g.adj[v]) < len(g.adj[u]) {
		u, v = v, u
	}
	a := g.adj[u]
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// AddEdge inserts the undirected edge {u, v}. Self-loops and out-of-range
// vertices are rejected; adding an existing edge is a no-op.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if g.hasEdgeFast(u, v) {
		return nil
	}
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
	g.m++
	return nil
}

// FromEdges builds a graph on n vertices from a complete edge list in one
// pass: degrees are counted, one backing array is carved into per-vertex
// adjacency slices, and each slice is sorted. This is O(n + m log deg)
// versus the O(m * deg) of repeated AddEdge calls, which is what the
// large-scale topology generator needs when m reaches hundreds of thousands
// of links. Self-loops, out-of-range endpoints, and duplicate edges are
// rejected. The resulting graph is fully mutable afterwards.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	g := New(n)
	deg := make([]int, n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || v < 0 || u >= n || v >= n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at %d", u)
		}
		deg[u]++
		deg[v]++
	}
	off := make([]int, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + deg[v]
	}
	backing := make([]int, off[n])
	fill := append([]int(nil), off[:n]...)
	for _, e := range edges {
		u, v := e[0], e[1]
		backing[fill[u]] = v
		fill[u]++
		backing[fill[v]] = u
		fill[v]++
	}
	for v := 0; v < n; v++ {
		// The three-index slice caps each adjacency list at its segment, so a
		// later AddEdge reallocates instead of clobbering the next vertex's
		// neighbors in the shared backing array.
		a := backing[off[v]:off[v+1]:off[v+1]]
		sort.Ints(a)
		for i := 1; i < len(a); i++ {
			if a[i] == a[i-1] {
				return nil, fmt.Errorf("graph: duplicate edge {%d,%d}", v, a[i])
			}
		}
		g.adj[v] = a
	}
	g.m = len(edges)
	return g, nil
}

// RemoveEdge deletes the undirected edge {u, v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	if !g.HasEdge(u, v) {
		return
	}
	g.adj[u] = removeSorted(g.adj[u], v)
	g.adj[v] = removeSorted(g.adj[v], u)
	g.m--
}

// Edges returns every edge {u, v} with u < v, ordered lexicographically.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// AverageDegree returns 2*M/N, or 0 for the empty graph.
func (g *Graph) AverageDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.n)
}

// IsComplete reports whether every pair of vertices is adjacent.
func (g *Graph) IsComplete() bool {
	return g.m == g.n*(g.n-1)/2
}

func (g *Graph) hasEdgeFast(u, v int) bool {
	a := g.adj[u]
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

func insertSorted(a []int, x int) []int {
	i := sort.SearchInts(a, x)
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = x
	return a
}

func removeSorted(a []int, x int) []int {
	i := sort.SearchInts(a, x)
	if i < len(a) && a[i] == x {
		return append(a[:i], a[i+1:]...)
	}
	return a
}

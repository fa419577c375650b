// Package graph provides the undirected-graph substrate used throughout the
// broadcast framework: compressed sparse row graphs with 32-bit vertex ids,
// traversal, connectivity, connected components, k-hop neighborhoods and the
// k-hop local-view subgraphs of Definition 2 in the paper.
package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
)

// Graph is a simple undirected graph on vertices 0..N()-1, kept in
// compressed sparse row form: the neighbors of v are to[off[v]:off[v+1]],
// sorted in ascending vertex order, which makes all traversal deterministic.
// Each link is stored once from each side, so a graph retains 4(n+1) + 8m
// bytes of adjacency. The zero value is not usable; construct with
// FromEdges. A Graph never changes once FromEdges returns it: a *Graph names
// one topology for its whole life, so it may key a cache and be shared
// across goroutines without locks.
type Graph struct {
	n, m int
	off  []int32 // n+1 offsets into to
	to   []int32 // 2m neighbor ids
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors returns a copy of v's neighbor list in ascending order.
func (g *Graph) Neighbors(v int) []int {
	out := make([]int, 0, g.Degree(v))
	for _, u := range g.Adj(v) {
		out = append(out, int(u))
	}
	return out
}

// ForEachNeighbor calls fn for every neighbor of v in ascending order. It
// avoids the copy made by Neighbors.
func (g *Graph) ForEachNeighbor(v int, fn func(u int)) {
	for _, u := range g.Adj(v) {
		fn(int(u))
	}
}

// Adj returns v's neighbor list in ascending order without copying it. The
// slice is owned by the graph, valid for the graph's life, and must not be
// written; it is for hot loops that ForEachNeighbor's callback would slow
// down.
func (g *Graph) Adj(v int) []int32 {
	lo, hi := g.off[v], g.off[v+1]
	return g.to[lo:hi:hi]
}

// HasEdge reports whether the edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return false
	}
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	_, ok := slices.BinarySearch(g.Adj(u), int32(v))
	return ok
}

// checkSize rejects a graph whose vertex ids or adjacency offsets would not
// fit the 32-bit CSR arrays: n vertices and m edges, stored from both sides.
func checkSize(n, m int) error {
	if n > math.MaxInt32 || m > math.MaxInt32/2 {
		return fmt.Errorf("graph: %d vertices and %d edges exceed 32-bit ids", n, m)
	}
	return nil
}

// FromEdges builds a graph on n vertices from a complete edge list in one
// pass: degrees are counted into the offsets, each edge is written from both
// sides, and each vertex's neighbors are sorted, by several goroutines when n
// is large. This is O(n + m log deg), which is what the large-scale topology
// generator needs when m reaches millions of links, and the arrays it
// allocates are exactly the graph's. Endpoints may be int or int32, so a
// caller holding 32-bit ids keeps 8 bytes a link. Self-loops, out-of-range
// endpoints, duplicate edges and sizes beyond 32-bit ids are rejected.
func FromEdges[T int | int32](n int, edges [][2]T) (*Graph, error) {
	if err := checkSize(n, len(edges)); err != nil {
		return nil, err
	}
	n = max(n, 0)
	g := &Graph{n: n, off: make([]int32, n+1)}
	for _, e := range edges {
		u, v := int(e[0]), int(e[1])
		if u < 0 || v < 0 || u >= n || v >= n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at %d", u)
		}
		g.off[u+1]++
		g.off[v+1]++
	}
	for v := 0; v < n; v++ {
		g.off[v+1] += g.off[v]
	}
	// off[v] serves as v's write cursor, which leaves it at the old off[v+1];
	// one shift right restores the offsets.
	g.to = make([]int32, 2*len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		g.to[g.off[u]] = int32(v)
		g.off[u]++
		g.to[g.off[v]] = int32(u)
		g.off[v]++
	}
	copy(g.off[1:], g.off[:n])
	g.off[0] = 0
	if err := g.sortAdj(); err != nil {
		return nil, err
	}
	g.m = len(edges)
	return g, nil
}

// sortGrain is the fewest vertices a FromEdges sort worker gets, so a small
// graph sorts on the caller alone. Tests lower it.
var sortGrain = 4096

// sortAdj sorts every adjacency list and rejects the first vertex, in id
// order, that lists a neighbor twice. Above sortGrain vertices per worker it
// splits the vertices into contiguous ranges, one per GOMAXPROCS.
func (g *Graph) sortAdj() error {
	w := max(1, min(runtime.GOMAXPROCS(0), g.n/sortGrain))
	if w == 1 {
		return g.sortRange(0, g.n)
	}
	errs := make([]error, w)
	var wg sync.WaitGroup
	for i := 1; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = g.sortRange(g.n*i/w, g.n*(i+1)/w)
		}()
	}
	errs[0] = g.sortRange(0, g.n/w)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sortRange sorts the adjacency lists of vertices [lo, hi) and reports the
// first of them with a duplicate neighbor.
func (g *Graph) sortRange(lo, hi int) error {
	for v := lo; v < hi; v++ {
		a := g.Adj(v)
		slices.Sort(a)
		for i := 1; i < len(a); i++ {
			if a[i] == a[i-1] {
				return fmt.Errorf("graph: duplicate edge {%d,%d}", v, a[i])
			}
		}
	}
	return nil
}

// Edges returns every edge {u, v} with u < v, ordered lexicographically.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.Adj(u) {
			if u < int(v) {
				out = append(out, [2]int{u, int(v)})
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

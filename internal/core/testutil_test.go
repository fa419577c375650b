package core_test

import (
	"math/rand"
	"testing"

	"adhocbcast/internal/graph"
	"adhocbcast/internal/view"
)

// buildGraph constructs a graph from an edge list.
func buildGraph(t *testing.T, n int, edges [][2]int) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatalf("FromEdges(%v): %v", edges, err)
	}
	return g
}

// dedupLinks drops the self-loops and the repeats, in either orientation, of
// an edge list, keeping the first of each link in order, so that any byte
// string a fuzz decoder reads is a valid FromEdges input.
func dedupLinks(links [][2]int) [][2]int {
	seen := make(map[[2]int]bool, len(links))
	var out [][2]int
	for _, e := range links {
		key := [2]int{min(e[0], e[1]), max(e[0], e[1])}
		if e[0] != e[1] && !seen[key] {
			seen[key] = true
			out = append(out, e)
		}
	}
	return out
}

// localView builds owner's k-hop view with the given metric.
func localView(t *testing.T, g *graph.Graph, owner, k int, m view.Metric) *view.Local {
	t.Helper()
	return view.NewLocal(g, owner, k, view.BasePriorities(g, m))
}

// randomConnectedGraph samples connected Erdős–Rényi graphs by rejection.
func randomConnectedGraph(t *testing.T, rng *rand.Rand, n int, p float64) *graph.Graph {
	t.Helper()
	for attempt := 0; attempt < 1000; attempt++ {
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g := buildGraph(t, n, edges)
		if g.Connected() {
			return g
		}
	}
	t.Fatalf("no connected graph found (n=%d p=%g)", n, p)
	return nil
}

// connectedVisitedSet grows a random connected set of visited nodes from a
// random seed node, matching the paper's assumption that all visited nodes
// are connected (through the source).
func connectedVisitedSet(rng *rand.Rand, g *graph.Graph, size int) []int {
	if size <= 0 {
		return nil
	}
	start := rng.Intn(g.N())
	visited := []int{start}
	inSet := map[int]bool{start: true}
	frontier := g.Neighbors(start)
	for len(visited) < size && len(frontier) > 0 {
		i := rng.Intn(len(frontier))
		v := frontier[i]
		frontier = append(frontier[:i], frontier[i+1:]...)
		if inSet[v] {
			continue
		}
		inSet[v] = true
		visited = append(visited, v)
		frontier = append(frontier, g.Neighbors(v)...)
	}
	return visited
}

// isCDS reports whether set is a connected dominating set of g.
func isCDS(g *graph.Graph, set []int) bool {
	if len(set) == 0 {
		return false
	}
	inSet := make([]bool, g.N())
	for _, v := range set {
		inSet[v] = true
	}
	for v := 0; v < g.N(); v++ {
		if inSet[v] {
			continue
		}
		dominated := false
		g.ForEachNeighbor(v, func(u int) {
			if inSet[u] {
				dominated = true
			}
		})
		if !dominated {
			return false
		}
	}
	var links [][2]int
	for _, v := range set {
		g.ForEachNeighbor(v, func(u int) {
			if u > v && inSet[u] {
				links = append(links, [2]int{v, u})
			}
		})
	}
	// A repeated member of set lists its links twice.
	induced, err := graph.FromEdges(g.N(), dedupLinks(links))
	if err != nil {
		panic(err)
	}
	dist := induced.BFSDistances(set[0])
	for _, v := range set {
		if dist[v] < 0 {
			return false
		}
	}
	return true
}

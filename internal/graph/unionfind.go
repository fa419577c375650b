package graph

// UnionFind is a disjoint-set forest with union by rank and path compression.
// It is used to contract higher-priority components during coverage-condition
// evaluation.
type UnionFind struct {
	parent []int
	rank   []int
}

// NewUnionFind returns a union-find structure over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{
		parent: make([]int, n),
		rank:   make([]int, n),
	}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the canonical representative of x's set.
func (uf *UnionFind) Find(x int) int {
	root := x
	for uf.parent[root] != root {
		root = uf.parent[root]
	}
	for uf.parent[x] != root {
		uf.parent[x], x = root, uf.parent[x]
	}
	return root
}

// Union merges the sets containing x and y and reports whether they were
// previously distinct.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	return true
}

// ResetSubset returns each listed element to its own singleton set. Callers
// that only ever union elements of a known subset can reset just that subset
// between uses instead of paying O(n) for a fresh structure.
func (uf *UnionFind) ResetSubset(xs []int) {
	for _, x := range xs {
		uf.parent[x] = x
		uf.rank[x] = 0
	}
}

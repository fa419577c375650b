// Package cluster implements the lowest-id clustering of Lin and Gerla that
// the paper leans on for dense networks (Section 2 assumption 5 and the
// density discussion of Section 6: "high density can be avoided by
// techniques such as adjustable transmitter range or clustering"): cluster
// heads plus border gateways form a sparse connected dominating backbone on
// which the coverage condition can operate cheaply.
package cluster

import "adhocbcast/internal/graph"

// Clustering is the result of a cluster formation pass.
type Clustering struct {
	// Head[v] is the cluster head of node v (heads point at themselves).
	Head []int
	// Heads lists the cluster heads in ascending id order.
	Heads []int
}

// LowestID forms clusters with the classic lowest-id heuristic: scanning
// ids in ascending order, every unassigned node becomes a head and absorbs
// its unassigned neighbors as members. Every member is a direct neighbor of
// its head, so heads dominate the graph.
func LowestID(g *graph.Graph) *Clustering {
	n := g.N()
	c := &Clustering{Head: make([]int, n)}
	for v := range c.Head {
		c.Head[v] = -1
	}
	for v := 0; v < n; v++ {
		if c.Head[v] >= 0 {
			continue
		}
		c.Head[v] = v
		c.Heads = append(c.Heads, v)
		g.ForEachNeighbor(v, func(u int) {
			if c.Head[u] < 0 {
				c.Head[u] = v
			}
		})
	}
	return c
}

// Borders returns the gateway nodes: nodes with at least one neighbor in a
// different cluster.
func (c *Clustering) Borders(g *graph.Graph) []int {
	var out []int
	for v := 0; v < g.N(); v++ {
		isBorder := false
		g.ForEachNeighbor(v, func(u int) {
			if c.Head[u] != c.Head[v] {
				isBorder = true
			}
		})
		if isBorder {
			out = append(out, v)
		}
	}
	return out
}

// Backbone returns the cluster backbone: heads plus border gateways. On a
// connected graph this is a connected dominating set — heads dominate
// (every member is adjacent to its head), each cluster's backbone members
// are adjacent to their head, and every inter-cluster link has both
// endpoints in the set.
func (c *Clustering) Backbone(g *graph.Graph) []int {
	inSet := make([]bool, g.N())
	for _, h := range c.Heads {
		inSet[h] = true
	}
	for _, b := range c.Borders(g) {
		inSet[b] = true
	}
	var out []int
	for v, ok := range inSet {
		if ok {
			out = append(out, v)
		}
	}
	return out
}

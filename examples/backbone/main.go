// Backbone: build a static virtual backbone (connected dominating set) with
// the static coverage condition, verify the CDS property, and compare the
// backbone sizes produced by Rule k, enhanced Span and the generic
// condition. A static backbone is broadcast-independent: the same forward
// node set serves every source (Section 4.1).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"adhocbcast/internal/cds"
	"adhocbcast/internal/core"
	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/view"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(7))
	net, err := geo.Generate(geo.Config{N: 80, AvgDegree: 8}, rng)
	if err != nil {
		return err
	}
	fmt.Printf("network: %d nodes, %d links\n", net.G.N(), net.G.M())

	conditions := []struct {
		name    string
		covered func(lv *view.Local) bool
	}{
		{name: "Span (<=3-hop paths)", covered: core.SpanCovered},
		{name: "Rule k (strong)", covered: core.StrongCovered},
		{name: "Generic (full)", covered: core.Covered},
	}
	base := view.BasePriorities(net.G, view.MetricNCR)
	for _, cond := range conditions {
		backbone := buildBackbone(net.G, base, cond.covered)
		ok := isCDS(net.G, backbone)
		fmt.Printf("%-26s backbone size %2d  (connected dominating set: %v)\n",
			cond.name, len(backbone), ok)
		if !ok {
			return fmt.Errorf("%s produced an invalid backbone", cond.name)
		}
	}

	// Compare against the raw Wu-Li marking process, the centralized
	// Guha-Khuller greedy, and the Section 1 post-processing idea: apply
	// the coverage condition on top of an existing CDS to shrink it.
	marking := cds.MarkingProcess(net.G)
	fmt.Printf("%-26s backbone size %2d  (connected dominating set: %v)\n",
		"Marking process (no rules)", len(marking), cds.IsCDS(net.G, marking))
	reduced := cds.Reduce(net.G, marking)
	fmt.Printf("%-26s backbone size %2d  (connected dominating set: %v)\n",
		"Marking + coverage-reduce", len(reduced), cds.IsCDS(net.G, reduced))
	greedy, err := cds.GuhaKhuller(net.G)
	if err != nil {
		return err
	}
	fmt.Printf("%-26s backbone size %2d  (connected dominating set: %v)\n",
		"Guha-Khuller (centralized)", len(greedy), cds.IsCDS(net.G, greedy))
	return nil
}

// buildBackbone evaluates the static coverage condition at every node over
// its 3-hop local view; nodes that are not covered form the backbone.
func buildBackbone(g *graph.Graph, base []view.Priority, covered func(*view.Local) bool) []int {
	var backbone []int
	for v := 0; v < g.N(); v++ {
		lv := view.NewLocal(g, v, 3, base)
		if !covered(lv) {
			backbone = append(backbone, v)
		}
	}
	return backbone
}

// isCDS verifies the connected-dominating-set property of Theorem 1: every
// node is in the backbone or adjacent to it, and the backbone induces a
// connected subgraph. Complete graphs need no backbone at all.
func isCDS(g *graph.Graph, backbone []int) bool {
	if g.IsComplete() {
		return true
	}
	if len(backbone) == 0 {
		return false
	}
	inSet := make([]bool, g.N())
	for _, v := range backbone {
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
	for _, v := range backbone {
		g.ForEachNeighbor(v, func(u int) {
			if inSet[u] && u > v {
				links = append(links, [2]int{v, u})
			}
		})
	}
	// The links are distinct links of g between backbone members.
	induced, _ := graph.FromEdges(g.N(), links)
	seen := induced.BFSDistances(backbone[0])
	for _, v := range backbone {
		if seen[v] < 0 {
			return false
		}
	}
	return true
}

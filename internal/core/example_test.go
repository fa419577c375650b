package core_test

import (
	"fmt"

	"adhocbcast/internal/core"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/view"
)

// The coverage condition in one picture: node 0's two neighbors are joined
// through a higher-priority chain, so node 0 may stay silent during a
// broadcast; node 3 (the highest priority) may not.
func ExampleCovered() {
	g, err := graph.FromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if err != nil {
		panic(err)
	}
	base := view.BasePriorities(g, view.MetricID)
	for v := 0; v < 4; v++ {
		lv := view.NewLocal(g, v, 2, base)
		fmt.Printf("node %d covered: %v\n", v, core.Covered(lv))
	}
	// Node 2's neighbors {0,3} would need an intermediate above priority 2,
	// and only node 1 (priority 1) is available: not covered.
	//
	// Output:
	// node 0 covered: true
	// node 1 covered: true
	// node 2 covered: false
	// node 3 covered: false
}

// MAX_MIN builds the maximal replacement path of Definition 1: the
// bottleneck-optimal connection between two neighbors of the pruned node.
func ExampleMaxMinPath() {
	// Two candidate paths between node 0's neighbors 1 and 2: through 3, or
	// through the higher-priority chain 4-5. MAX_MIN prefers the latter.
	g, err := graph.FromEdges(6, [][2]int{{0, 1}, {0, 2}, {1, 3}, {3, 2}, {1, 4}, {4, 5}, {5, 2}})
	if err != nil {
		panic(err)
	}
	lv := view.NewLocal(g, 0, 0, view.BasePriorities(g, view.MetricID))
	path, ok := core.MaxMinPath(lv, 1, 2)
	fmt.Println(ok, path)
	// Output:
	// true [4 5]
}

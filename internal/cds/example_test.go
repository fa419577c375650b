package cds_test

import (
	"fmt"

	"adhocbcast/internal/cds"
	"adhocbcast/internal/graph"
)

// Build a backbone with the marking process, then shrink it with the
// coverage-condition reduction of Section 1.
func ExampleReduce() {
	// A 6-cycle: every node is marked (its two neighbors are not directly
	// connected), but half of them suffice as a CDS.
	var ring [][2]int
	for i := 0; i < 6; i++ {
		ring = append(ring, [2]int{i, (i + 1) % 6})
	}
	g, err := graph.FromEdges(6, ring)
	if err != nil {
		panic(err)
	}
	marked := cds.MarkingProcess(g)
	reduced := cds.Reduce(g, marked)
	fmt.Println("marked: ", marked)
	fmt.Println("reduced:", reduced, "is CDS:", cds.IsCDS(g, reduced))
	// Output:
	// marked:  [0 1 2 3 4 5]
	// reduced: [2 3 4 5] is CDS: true
}

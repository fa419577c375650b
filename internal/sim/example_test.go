package sim_test

import (
	"fmt"

	"adhocbcast/internal/graph"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// A complete broadcast in a few lines: on a five-node path the generic
// first-receipt algorithm forwards everywhere except the far leaf, which
// prunes itself.
func ExampleRun() {
	g, err := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if err != nil {
		panic(err)
	}
	res, err := sim.Run(g, 0, protocol.Generic(protocol.TimingFirstReceipt), sim.Config{Hops: 2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("forwarded: %v\n", res.Forward)
	fmt.Printf("delivered: %d/%d\n", res.Delivered, res.N)
	// Output:
	// forwarded: [0 1 2 3]
	// delivered: 5/5
}

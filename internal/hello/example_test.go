package hello_test

import (
	"fmt"

	"adhocbcast/internal/graph"
	"adhocbcast/internal/hello"
)

// Two hello rounds give a node exactly the 2-hop information of
// Definition 2: its own links plus its neighbors' links.
func ExampleProtocol() {
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	views, err := hello.Exchange(g, hello.Config{Rounds: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println(views.Graph(0).Edges())
	// Output:
	// [[0 1] [1 2]]
}

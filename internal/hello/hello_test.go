package hello

import (
	"reflect"
	"testing"

	"adhocbcast/internal/graph"
)

func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// lossless runs k lossless hello rounds over g.
func lossless(t *testing.T, g *graph.Graph, k int) *Views {
	t.Helper()
	vs, err := Exchange(g, Config{Rounds: k})
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

func TestZeroRoundsKnowsNothing(t *testing.T) {
	vs := lossless(t, pathGraph(t, 4), 0)
	if vs.Rounds() != 0 {
		t.Fatalf("rounds = %d", vs.Rounds())
	}
	if links := vs.Graph(1).Edges(); len(links) != 0 {
		t.Fatalf("fresh node knows links %v", links)
	}
	for v := 0; v < 4; v++ {
		if k := vs.Known(1, v); k != (v == 1) {
			t.Fatalf("known[%d] = %v before any round", v, k)
		}
	}
}

func TestOneRoundLearnsStar(t *testing.T) {
	// After one round a node knows exactly its incident links — the G1(v)
	// of Definition 2 (neighbor-to-neighbor links stay invisible).
	g, err := graph.FromEdges(3, [][2]int{{0, 1}, {0, 2}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	links := lossless(t, g, 1).Graph(0).Edges()
	if want := [][2]int{{0, 1}, {0, 2}}; !reflect.DeepEqual(links, want) {
		t.Fatalf("links = %v, want %v", links, want)
	}
}

func TestTwoRoundsLearnNeighborLinks(t *testing.T) {
	g, err := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	vs := lossless(t, g, 2)
	vg := vs.Graph(0)
	if !vg.HasEdge(1, 2) {
		t.Fatal("round 2 should reveal the neighbor's link {1,2}")
	}
	if vg.HasEdge(2, 3) {
		t.Fatal("link {2,3} is 2 hops out and needs a third round")
	}
	if !vs.Known(0, 2) || vs.Known(0, 3) {
		t.Fatalf("known 2, 3 = %v, %v", vs.Known(0, 2), vs.Known(0, 3))
	}
}

func TestConvergence(t *testing.T) {
	// On a diameter-D graph, D+1 rounds reach the full topology at every
	// node, and further rounds change nothing.
	g := pathGraph(t, 6) // diameter 5
	vs := lossless(t, g, 6)
	for v := 0; v < 6; v++ {
		if m := vs.Graph(v).M(); m != g.M() {
			t.Fatalf("node %d knows %d links, want %d", v, m, g.M())
		}
	}
	more := lossless(t, g, 7)
	if more.Graph(0).M() != vs.Graph(0).M() {
		t.Fatal("converged knowledge kept growing")
	}
	if more.Rounds() != 7 {
		t.Fatalf("rounds = %d", more.Rounds())
	}
}

func TestEmptyGraph(t *testing.T) {
	vs := lossless(t, pathGraph(t, 0), 1) // must not panic
	if vs.N() != 0 {
		t.Fatalf("views on empty graph cover %d nodes", vs.N())
	}
}

func TestIsolatedNodeLearnsNothing(t *testing.T) {
	g, err := graph.FromEdges(3, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if links := lossless(t, g, 5).Graph(2).Edges(); len(links) != 0 {
		t.Fatalf("isolated node learned %v", links)
	}
}

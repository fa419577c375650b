package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adhocbcast/internal/cds"
	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
)

func build(t *testing.T, n int, edges [][2]int) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLowestIDPath(t *testing.T) {
	// Path 0-1-2-3-4: 0 absorbs 1; 2 becomes the next head absorbing 3;
	// 4 is left alone as its own head.
	g := build(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	c := LowestID(g)
	wantHead := []int{0, 0, 2, 2, 4}
	for v, h := range c.Head {
		if h != wantHead[v] {
			t.Fatalf("Head = %v, want %v", c.Head, wantHead)
		}
	}
	if len(c.Heads) != 3 {
		t.Fatalf("clusters = %d, want 3", len(c.Heads))
	}
	if c.Head[0] != 0 || c.Head[1] == 1 {
		t.Fatal("head assignment wrong")
	}
}

func TestLowestIDStar(t *testing.T) {
	g := build(t, 4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	c := LowestID(g)
	if len(c.Heads) != 1 || c.Heads[0] != 0 {
		t.Fatalf("star clustering: %+v", c)
	}
}

// TestLowestIDPropertiesQuick checks the clustering invariants on random
// networks: every node has a head, members are adjacent to their heads, and
// heads are never members of other clusters.
func TestLowestIDPropertiesQuick(t *testing.T) {
	f := func(seed int64) bool {
		net, err := geo.Generate(geo.Config{N: 50, AvgDegree: 10},
			rand.New(rand.NewSource(seed)))
		if err != nil {
			return true
		}
		c := LowestID(net.G)
		for v := 0; v < 50; v++ {
			h := c.Head[v]
			if h < 0 {
				return false
			}
			if h != v && !net.G.HasEdge(v, h) {
				return false
			}
			if h != v && c.Head[h] != h {
				return false
			}
			// A head must have the lowest id in its own cluster.
			if h == v {
				for u := 0; u < v; u++ {
					if c.Head[u] == v {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestBorders(t *testing.T) {
	// Two triangles joined by one edge: with lowest-id clustering nodes 0-2
	// form one cluster (0 head) and 3-5 another (3 head); the bridge
	// endpoints 2 and 3 are the borders.
	g := build(t, 6, [][2]int{
		{0, 1}, {0, 2}, {1, 2},
		{3, 4}, {3, 5}, {4, 5},
		{2, 3},
	})
	c := LowestID(g)
	borders := c.Borders(g)
	if len(borders) != 2 || borders[0] != 2 || borders[1] != 3 {
		t.Fatalf("borders = %v, want [2 3]", borders)
	}
}

// TestBackboneIsCDSQuick verifies the backbone's CDS property on random
// connected networks of varying density.
func TestBackboneIsCDSQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := []float64{6, 12, 24}[rng.Intn(3)]
		net, err := geo.Generate(geo.Config{N: 60, AvgDegree: d}, rng)
		if err != nil {
			return true
		}
		c := LowestID(net.G)
		return cds.IsCDS(net.G, c.Backbone(net.G))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func TestBackboneReducible(t *testing.T) {
	// The Section 1 post-processing applies to cluster backbones too: the
	// coverage condition must shrink them while preserving the CDS
	// property (dense networks have fat borders).
	rng := rand.New(rand.NewSource(5))
	net, err := geo.Generate(geo.Config{N: 80, AvgDegree: 20}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := LowestID(net.G)
	backbone := c.Backbone(net.G)
	reduced := cds.Reduce(net.G, backbone)
	if len(reduced) >= len(backbone) {
		t.Fatalf("reduction had no effect: %d -> %d", len(backbone), len(reduced))
	}
	if !cds.IsCDS(net.G, reduced) {
		t.Fatal("reduced backbone invalid")
	}
}

func TestSingleNodeAndEmpty(t *testing.T) {
	c := LowestID(build(t, 1, nil))
	if len(c.Heads) != 1 || c.Head[0] != 0 {
		t.Fatalf("single node: %+v", c)
	}
	if got := len(LowestID(build(t, 0, nil)).Heads); got != 0 {
		t.Fatalf("empty graph clusters = %d", got)
	}
}

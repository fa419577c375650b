package view

import (
	"testing"
	"unsafe"

	"adhocbcast/internal/graph"
)

// pathGraph builds 0-1-2-...-(n-1).
func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestNewLocalInvisiblePriorities(t *testing.T) {
	g := pathGraph(t, 6)
	base := BasePriorities(g, MetricID)
	lv := NewLocal(g, 0, 2, base)
	for v := 0; v < 6; v++ {
		wantVisible := v <= 2
		if lv.IsVisible(v) != wantVisible {
			t.Fatalf("IsVisible(%d) = %v, want %v", v, lv.IsVisible(v), wantVisible)
		}
		if wantVisible && lv.Pr(v) != base[v] {
			t.Fatalf("visible node %d priority changed", v)
		}
		if !wantVisible && lv.Pr(v).Status != Invisible {
			t.Fatalf("invisible node %d has status %v", v, lv.Pr(v).Status)
		}
		if lv.Pr(v).ID != v {
			t.Fatalf("node %d id = %d", v, lv.Pr(v).ID)
		}
	}
	if lv.Owner != 0 || lv.Hops() != 2 {
		t.Fatalf("Owner/Hops = %d/%d", lv.Owner, lv.Hops())
	}
}

// TestLocalPrioritiesNoMoreThanGlobal checks the local-view axiom of Section
// 2: Pr'(v) <= Pr(v) for every node.
func TestLocalPrioritiesNoMoreThanGlobal(t *testing.T) {
	g := pathGraph(t, 8)
	base := BasePriorities(g, MetricNCR)
	for owner := 0; owner < 8; owner++ {
		lv := NewLocal(g, owner, 2, base)
		for v := 0; v < 8; v++ {
			if lv.Pr(v).Greater(base[v]) {
				t.Fatalf("owner %d: local priority of %d exceeds global", owner, v)
			}
		}
	}
}

func TestMarkVisited(t *testing.T) {
	g := pathGraph(t, 6)
	base := BasePriorities(g, MetricID)
	lv := NewLocal(g, 2, 2, base)

	lv.MarkVisited(3)
	if !lv.IsVisited(3) {
		t.Fatal("MarkVisited(3) had no effect")
	}
	if lv.Pr(3).Status != Visited {
		t.Fatalf("status = %v", lv.Pr(3).Status)
	}

	// Invisible node (distance 3 > 2): mark must be ignored.
	lv.MarkVisited(5)
	if lv.IsVisited(5) {
		t.Fatal("invisible node marked visited")
	}

	// Out-of-range ids must be ignored without panicking.
	lv.MarkVisited(-1)
	lv.MarkVisited(100)
}

func TestMarkDesignated(t *testing.T) {
	g := pathGraph(t, 5)
	base := BasePriorities(g, MetricID)
	lv := NewLocal(g, 2, 2, base)

	lv.MarkDesignated(1)
	if lv.Pr(1).Status != Designated {
		t.Fatalf("status = %v, want designated", lv.Pr(1).Status)
	}

	// Designation must never demote a visited node.
	lv.MarkVisited(3)
	lv.MarkDesignated(3)
	if lv.Pr(3).Status != Visited {
		t.Fatalf("designation demoted a visited node to %v", lv.Pr(3).Status)
	}

	// Visiting a designated node promotes it.
	lv.MarkVisited(1)
	if lv.Pr(1).Status != Visited {
		t.Fatalf("visited mark did not promote designated node: %v", lv.Pr(1).Status)
	}

	lv.MarkDesignated(-2)
	lv.MarkDesignated(99)
}

func TestResetStatus(t *testing.T) {
	g := pathGraph(t, 6)
	base := BasePriorities(g, MetricID)
	lv := NewLocal(g, 2, 2, base)
	lv.MarkVisited(1)
	lv.MarkDesignated(3)
	lv.ResetStatus()
	for v := 0; v < 6; v++ {
		if lv.Pr(v) != NewLocal(g, 2, 2, base).Pr(v) {
			t.Fatalf("node %d priority differs after reset", v)
		}
	}
	// Fringe information must survive the reset: 0 and 4 are both at
	// distance 2 from the owner, so the (nonexistent) link between them
	// stays excluded, while real edges remain.
	if !lv.HasEdge(1, 2) || !lv.HasEdge(2, 3) || !lv.HasEdge(3, 4) {
		t.Fatal("reset lost view edges")
	}
}

func TestNeighbors(t *testing.T) {
	g := pathGraph(t, 5)
	base := BasePriorities(g, MetricID)
	lv := NewLocal(g, 2, 2, base)
	nbrs := lv.Neighbors()
	if len(nbrs) != 2 || nbrs[0] != 1 || nbrs[1] != 3 {
		t.Fatalf("Neighbors() = %v", nbrs)
	}
}

// TestFringeEdgesExcluded checks the Definition 2 edge rule: links between
// two nodes both exactly k hops from the owner are outside the view.
func TestFringeEdgesExcluded(t *testing.T) {
	// Cycle 0-1-2-3-4-5-0: from owner 0 with k=2, nodes 2 and 4 are both at
	// distance 2. The view contains no 2-4 edge anyway; use a square with a
	// diagonal instead: 0-1, 0-3, 1-2, 3-2, plus 2 at distance 2 via both.
	g := graph.New(5)
	for _, e := range [][2]int{{0, 1}, {0, 3}, {1, 2}, {3, 2}, {2, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	lv := NewLocal(g, 0, 1, BasePriorities(g, MetricID))
	// k=1: members {0,1,3}; 1 and 3 are fringe, so any 1-3 link would be
	// excluded. Here 1-3 does not exist; check 1-2 is invisible (2 is not a
	// member) and 0-1 is visible.
	if !lv.HasEdge(0, 1) || !lv.HasEdge(0, 3) {
		t.Fatal("owner links missing from 1-hop view")
	}
	if lv.HasEdge(1, 2) || lv.IsVisible(2) {
		t.Fatal("1-hop view leaks 2-hop information")
	}

	// Now with an explicit fringe-fringe link: triangle 0-1, 0-2, 1-2 plus
	// pendant 1-3. k=1 from 3: members {1, 3} only... use owner 0, k=1:
	// members {0,1,2}, fringe {1,2}, so the 1-2 link must be excluded.
	h := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 3}} {
		if err := h.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	hv := NewLocal(h, 0, 1, BasePriorities(h, MetricID))
	if hv.HasEdge(1, 2) {
		t.Fatal("fringe-fringe link visible in 1-hop view")
	}
	got := 0
	hv.ForEachNeighbor(1, func(int) { got++ })
	if got != 1 {
		t.Fatalf("fringe node 1 has %d view-neighbors, want 1 (just the owner)", got)
	}
}

func TestTwoHopTargets(t *testing.T) {
	// Star of node 0 with arms 1-4, plus leaves: 1-5, 2-6, 2-7, and a
	// redundant link 5-0? no: keep 2-hop targets {5,6,7}.
	g := graph.New(8)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 5}, {2, 6}, {2, 7}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	base := BasePriorities(g, MetricID)
	lv := NewLocal(g, 0, 2, base)
	got := lv.TwoHopTargets()
	want := []int{5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("TwoHopTargets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TwoHopTargets = %v, want %v", got, want)
		}
	}
}

func TestTwoHopTargetsExcludesNeighborsAndSelf(t *testing.T) {
	// Triangle: everything is within one hop, no 2-hop targets.
	g := graph.New(3)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	lv := NewLocal(g, 0, 2, BasePriorities(g, MetricID))
	if got := lv.TwoHopTargets(); len(got) != 0 {
		t.Fatalf("TwoHopTargets = %v, want empty", got)
	}
}

func TestGlobalViewAllVisible(t *testing.T) {
	g := pathGraph(t, 7)
	lv := NewLocal(g, 3, 0, BasePriorities(g, MetricID))
	for v := 0; v < 7; v++ {
		if !lv.IsVisible(v) {
			t.Fatalf("node %d invisible in global view", v)
		}
	}
	// Every topology edge must be in the global view.
	for v := 0; v < 7; v++ {
		g.ForEachNeighbor(v, func(u int) {
			if !lv.HasEdge(v, u) {
				t.Fatalf("global view lost edge %d-%d", v, u)
			}
		})
	}
}

// TestOutOfRangeIDsAreInvisible feeds ids outside 0..n-1 to a 2-hop view
// whose members include both end vertices and to a global view. memberIndex
// reads no topology to reject them — a k-hop view relies on the member search
// alone, a global view on the length of its identity list — so each must
// come out invisible, unmarkable and without links.
func TestOutOfRangeIDsAreInvisible(t *testing.T) {
	const n = 5
	g := pathGraph(t, n)
	base := BasePriorities(g, MetricID)
	for _, k := range []int{2, 0} {
		lv := NewLocal(g, 2, k, base)
		if !lv.IsVisible(0) || !lv.IsVisible(n-1) {
			t.Fatalf("k=%d: the view does not reach both ends", k)
		}
		for _, x := range []int{-1, n, n + 5} {
			lv.MarkVisited(x)
			lv.MarkDesignated(x)
			if lv.IsVisible(x) || lv.IsVisited(x) || lv.Status(x) != Invisible {
				t.Errorf("k=%d: id %d visible (%v) or marked (status %v)", k, x, lv.IsVisible(x), lv.Status(x))
			}
			if p := lv.Pr(x); p != (Priority{Status: Invisible, ID: x}) {
				t.Errorf("k=%d: Pr(%d) = %+v", k, x, p)
			}
			if lv.HasEdge(lv.Owner, x) || lv.HasEdge(x, n-1) || lv.Degree(x) != 0 {
				t.Errorf("k=%d: id %d has view links", k, x)
			}
			lv.ForEachNeighbor(x, func(y int) { t.Errorf("k=%d: id %d has view-neighbor %d", k, x, y) })
		}
	}
}

// TestLocalFootprint pins a view to one cache line: what every node costs
// beyond its members, and what the receipt path's MarkVisited loads.
func TestLocalFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Local{}); got > 64 {
		t.Errorf("Local is %d bytes, budget 64: Owner 8 + header pointer 8 + members 24 + meta 24; "+
			"the topology, base priorities and hop count live in the header every view of a build shares", got)
	}
}

// TestCompactMatchesLocalView cross-checks the compact representation
// against graph.LocalView (the original Definition 2 materialization) on
// random graphs: identical member sets and identical filtered edges.
func TestCompactMatchesLocalView(t *testing.T) {
	g := graph.New(12)
	edges := [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7},
		{7, 8}, {8, 9}, {9, 10}, {10, 11}, {0, 4}, {2, 7}, {5, 9}, {1, 10},
	}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	base := BasePriorities(g, MetricDegree)
	for _, k := range []int{0, 1, 2, 3} {
		for owner := 0; owner < g.N(); owner++ {
			lv := NewLocal(g, owner, k, base)
			sub, visible := g.LocalView(owner, k)
			for v := 0; v < g.N(); v++ {
				if lv.IsVisible(v) != visible[v] {
					t.Fatalf("k=%d owner=%d: visibility of %d differs", k, owner, v)
				}
				for u := 0; u < g.N(); u++ {
					if lv.HasEdge(v, u) != sub.HasEdge(v, u) {
						t.Fatalf("k=%d owner=%d: edge %d-%d differs", k, owner, v, u)
					}
				}
				var got []int
				lv.ForEachNeighbor(v, func(u int) { got = append(got, u) })
				var want []int
				if visible[v] {
					want = sub.Neighbors(v)
				}
				if len(got) != len(want) {
					t.Fatalf("k=%d owner=%d: neighbors of %d = %v, want %v", k, owner, v, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("k=%d owner=%d: neighbors of %d = %v, want %v", k, owner, v, got, want)
					}
				}
			}
		}
	}
}

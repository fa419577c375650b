package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adhocbcast/internal/core"
	"adhocbcast/internal/view"
)

func TestCoveredLeafAndIsolated(t *testing.T) {
	// A node with at most one neighbor satisfies the coverage condition
	// vacuously: there is no pair of neighbors to connect.
	g := buildGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
	if !core.Covered(localView(t, g, 0, 2, view.MetricID)) {
		t.Fatal("leaf node not covered")
	}
	if core.Covered(localView(t, g, 1, 2, view.MetricID)) {
		t.Fatal("cut vertex reported covered")
	}
}

func TestCoveredCompleteGraph(t *testing.T) {
	// In a complete graph every pair of neighbors is directly connected:
	// everyone may stay silent (the paper notes one transmission from the
	// source reaches all nodes).
	g := buildGraph(t, 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	for v := 0; v < 4; v++ {
		if !core.Covered(localView(t, g, v, 2, view.MetricID)) {
			t.Fatalf("node %d of complete graph not covered", v)
		}
	}
}

func TestCoveredTriangleFigure1(t *testing.T) {
	// The paper's Figure 1: v=0 broadcasts to u=1 and w=2 who are directly
	// connected; neither needs to forward. With ID priority, nodes 1 and 2
	// are also covered for node 0's pair (vacuous or direct link).
	g := buildGraph(t, 3, [][2]int{{0, 1}, {0, 2}, {1, 2}})
	for v := 0; v < 3; v++ {
		if !core.Covered(localView(t, g, v, 2, view.MetricID)) {
			t.Fatalf("triangle node %d not covered", v)
		}
	}
}

func TestCoveredReplacementPathThroughHigherPriority(t *testing.T) {
	// v=0's two neighbors 1 and 2 are connected only through 3 (higher id,
	// higher priority): v is covered. Mirror case: node 3's neighbors are
	// connected only through 0 (lower priority): not covered.
	g := buildGraph(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if !core.Covered(localView(t, g, 0, 2, view.MetricID)) {
		t.Fatal("node 0 should be covered via higher-priority node 3")
	}
	if core.Covered(localView(t, g, 3, 2, view.MetricID)) {
		t.Fatal("node 3 must not be covered via lower-priority node 0")
	}
}

func TestCoveredLongerReplacementPath(t *testing.T) {
	// Neighbors 1 and 2 of node 0 connected via the 2-hop chain 3-4; all
	// intermediates have higher ids. Visible only with a 3-hop view.
	g := buildGraph(t, 5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {3, 4}, {4, 2}})
	if !core.Covered(localView(t, g, 0, 3, view.MetricID)) {
		t.Fatal("node 0 should be covered through chain 3-4")
	}
	// With a 2-hop view the link {3,4} is invisible (both are... 3 is
	// 2 hops? 3 is at distance 2 via 1; 4 at distance 2 via 2; the link
	// {3,4} joins two distance-2 nodes and is excluded from E2(0)).
	if core.Covered(localView(t, g, 0, 2, view.MetricID)) {
		t.Fatal("node 0 covered under 2-hop view where the chain is invisible")
	}
}

func TestCoveredLowPriorityIntermediateRejected(t *testing.T) {
	// Node 5's neighbors 3 and 4 are connected via nodes 1-2, both with
	// lower ids: no replacement path for 5.
	g := buildGraph(t, 6, [][2]int{{5, 3}, {5, 4}, {3, 1}, {1, 2}, {2, 4}})
	if core.Covered(localView(t, g, 5, 0, view.MetricID)) {
		t.Fatal("node 5 covered through lower-priority intermediates")
	}
}

func TestCoveredVisitedNodesAssumedConnected(t *testing.T) {
	// Figure 6(b) style case: two visited nodes that look disconnected in
	// the local view are still treated as one connected component because
	// all visited nodes are connected through the source.
	//
	// v=0 has neighbors 1 and 2. Neighbor 1 is adjacent to visited node 5;
	// neighbor 2 is adjacent to visited node 6; 5 and 6 share no visible
	// link. Without the visited-connected assumption 0 is not covered;
	// with it, it is.
	g := buildGraph(t, 7, [][2]int{{0, 1}, {0, 2}, {1, 5}, {2, 6}, {5, 3}, {6, 4}})
	// Use low-priority ids for the connectors so that only visited status
	// can make them usable: here 5 and 6 already have higher ids, so first
	// check the baseline with a different owner... instead give the owner
	// the highest priority by raising its base key before building the view.
	base := view.BasePriorities(g, view.MetricID)
	base[0] = view.Priority{Status: view.Unvisited, Key1: 99, ID: 0}
	lv := view.NewLocal(g, 0, 2, base)
	if core.Covered(lv) {
		t.Fatal("node 0 covered before any visited marks")
	}
	lv.MarkVisited(5)
	if core.Covered(lv) {
		t.Fatal("one visited connector cannot join both neighbors")
	}
	lv.MarkVisited(6)
	if !core.Covered(lv) {
		t.Fatal("two visited connectors must count as connected")
	}
}

func TestCoveredVsStrongDifference(t *testing.T) {
	// The Figure 6(a) phenomenon: pairwise replacement paths exist through
	// different higher-priority components, so the generic condition holds,
	// but no single component dominates the whole neighborhood, so the
	// strong condition fails.
	//
	// Owner 5 with neighbors 1, 2, 3 (lower ids). H = {6, 7}: 6 joins 2-3,
	// 7 joins 1-3, and 1-2 are directly linked. Node 8 keeps the graph
	// connected elsewhere.
	g := buildGraph(t, 9, [][2]int{
		{5, 1}, {5, 2}, {5, 3},
		{1, 2},
		{2, 6}, {6, 3},
		{1, 7}, {7, 3},
		{1, 8},
	})
	lv := localView(t, g, 5, 0, view.MetricID)
	if !core.Covered(lv) {
		t.Fatal("generic coverage condition should hold")
	}
	if core.StrongCovered(lv) {
		t.Fatal("strong coverage condition should fail: no single dominating component")
	}
}

func TestStrongCoveredSingleComponent(t *testing.T) {
	// Node 0's neighbors 1 and 2 are both adjacent to node 3: the single
	// component {3} dominates N(0).
	g := buildGraph(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if !core.StrongCovered(localView(t, g, 0, 2, view.MetricID)) {
		t.Fatal("single higher-priority neighbor component should cover node 0")
	}
}

func TestStrongCoveredRestrictedDistance(t *testing.T) {
	// The dominating component {3,4} sits partly two hops away from owner
	// 0: 3 is a neighbor's neighbor. With maxDist=1 (coverage nodes must be
	// neighbors) the condition fails; with maxDist=2 it holds.
	g := buildGraph(t, 5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {3, 4}, {4, 2}})
	lv := localView(t, g, 0, 3, view.MetricID)
	if new(core.Evaluator).StrongCoveredRestricted(lv, 1) {
		t.Fatal("restricted(1) must not use 2-hop coverage nodes")
	}
	if !new(core.Evaluator).StrongCoveredRestricted(lv, 2) {
		t.Fatal("restricted(2) should find the 2-hop coverage chain")
	}
}

// TestImplicationsQuick property-checks the condition hierarchy on random
// views with random visited marks:
//
//	StrongCoveredRestricted(k) => StrongCovered => Covered
//	SpanCovered => Covered
//	SBACovered  => StrongCovered
func TestImplicationsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(t, rng, 4+rng.Intn(20), 0.25)
		metric := []view.Metric{view.MetricID, view.MetricDegree, view.MetricNCR}[rng.Intn(3)]
		base := view.BasePriorities(g, metric)
		hops := 2 + rng.Intn(2)
		visited := connectedVisitedSet(rng, g, rng.Intn(4))
		for v := 0; v < g.N(); v++ {
			lv := view.NewLocal(g, v, hops, base)
			isOwnerVisited := false
			for _, x := range visited {
				if x == v {
					isOwnerVisited = true
				}
				lv.MarkVisited(x)
			}
			if isOwnerVisited {
				continue
			}
			covered := core.Covered(lv)
			strong := core.StrongCovered(lv)
			restricted := new(core.Evaluator).StrongCoveredRestricted(lv, hops-1)
			span := core.SpanCovered(lv)
			sba := core.SBACovered(lv)
			if restricted && !strong {
				return false
			}
			if strong && !covered {
				return false
			}
			if span && !covered {
				return false
			}
			if sba && !strong {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCoveredMatchesReplacementPathsQuick cross-validates the component-
// contraction implementation of the coverage condition against the MAX_MIN
// solver's reachability predicate: without visited marks they must agree
// exactly (Covered <=> every neighbor pair has a replacement path).
func TestCoveredMatchesReplacementPathsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(t, rng, 4+rng.Intn(16), 0.3)
		base := view.BasePriorities(g, view.MetricID)
		hops := 2 + rng.Intn(2)
		for v := 0; v < g.N(); v++ {
			lv := view.NewLocal(g, v, hops, base)
			nbrs := lv.Neighbors()
			allPairs := true
			for i := 0; i < len(nbrs) && allPairs; i++ {
				for j := i + 1; j < len(nbrs) && allPairs; j++ {
					if !core.ReplacementPathExists(lv, nbrs[i], nbrs[j]) {
						allPairs = false
					}
				}
			}
			if core.Covered(lv) != allPairs {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCoveredMonotoneInViewQuick checks the Theorem 2 mechanism directly: a
// node non-forward under a smaller view stays non-forward under any larger
// view (more topology and state can only help).
func TestCoveredMonotoneInViewQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(t, rng, 4+rng.Intn(16), 0.25)
		base := view.BasePriorities(g, view.MetricDegree)
		for v := 0; v < g.N(); v++ {
			smaller := view.NewLocal(g, v, 2, base)
			larger := view.NewLocal(g, v, 3, base)
			if core.Covered(smaller) && !core.Covered(larger) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

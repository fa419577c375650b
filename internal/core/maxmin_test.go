package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adhocbcast/internal/core"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/view"
)

func TestMaxMinPathDirectEdge(t *testing.T) {
	g := buildGraph(t, 3, [][2]int{{0, 1}, {0, 2}, {1, 2}})
	lv := localView(t, g, 0, 2, view.MetricID)
	path, ok := core.MaxMinPath(lv, 1, 2)
	if !ok {
		t.Fatal("direct edge: no path found")
	}
	if len(path) != 0 {
		t.Fatalf("direct edge: intermediates %v, want none", path)
	}
}

func TestMaxMinPathNoPath(t *testing.T) {
	// Node 5's neighbors 3 and 4 can only be joined through lower-priority
	// nodes: MAX_MIN must report failure.
	g := buildGraph(t, 6, [][2]int{{5, 3}, {5, 4}, {3, 1}, {1, 2}, {2, 4}})
	lv := localView(t, g, 5, 0, view.MetricID)
	if _, ok := core.MaxMinPath(lv, 3, 4); ok {
		t.Fatal("found a replacement path through lower-priority intermediates")
	}
	if core.ReplacementPathExists(lv, 3, 4) {
		t.Fatal("ReplacementPathExists disagrees")
	}
}

func TestMaxMinPathPrefersHighBottleneck(t *testing.T) {
	// Owner 0, endpoints u=1 and w=2. Two candidate replacement paths:
	// through node 3 (bottleneck 3) or through nodes 4-5 (bottleneck 4).
	// The max-min path must use 4-5 even though it is longer.
	g := buildGraph(t, 6, [][2]int{
		{0, 1}, {0, 2},
		{1, 3}, {3, 2},
		{1, 4}, {4, 5}, {5, 2},
	})
	lv := localView(t, g, 0, 0, view.MetricID)
	path, ok := core.MaxMinPath(lv, 1, 2)
	if !ok {
		t.Fatal("no path found")
	}
	if len(path) != 2 || path[0] != 4 || path[1] != 5 {
		t.Fatalf("path = %v, want [4 5]", path)
	}
}

// validatePath checks the structural properties Lemma 1 promises: the
// intermediates are distinct, each has priority above the owner's, and
// consecutive hops (including the endpoints) are adjacent in the view.
func validatePath(lv *view.Local, u, w int, path []int) bool {
	prv := lv.Pr(lv.Owner)
	seen := map[int]bool{u: true, w: true}
	prev := u
	for _, x := range path {
		if seen[x] {
			return false
		}
		seen[x] = true
		if !lv.Pr(x).Greater(prv) {
			return false
		}
		if !lv.HasEdge(prev, x) {
			return false
		}
		prev = x
	}
	return lv.HasEdge(prev, w)
}

// bruteBottleneck returns the best achievable bottleneck priority (the
// maximal over paths of the minimal intermediate priority) by threshold
// search: for each candidate threshold node x, test whether u and w connect
// using only intermediates with priority >= Pr(x).
func bruteBottleneck(lv *view.Local, u, w int) (view.Priority, bool) {
	if lv.HasEdge(u, w) {
		return view.Priority{}, false // no intermediate needed
	}
	prv := lv.Pr(lv.Owner)
	n := lv.N()
	var best view.Priority
	found := false
	for x := 0; x < n; x++ {
		if x == lv.Owner || !isMember(lv, x) || !lv.Pr(x).Greater(prv) {
			continue
		}
		threshold := lv.Pr(x)
		// BFS from u through intermediates with priority >= threshold.
		ok := func() bool {
			allowed := func(y int) bool {
				return y != lv.Owner && isMember(lv, y) && !lv.Pr(y).Less(threshold)
			}
			// u and w are not adjacent (checked above), so any u-w
			// connection found here goes through >= 1 intermediate.
			seen := make([]bool, n)
			queue := []int{u}
			for len(queue) > 0 {
				cur := queue[0]
				queue = queue[1:]
				reached := false
				lv.ForEachNeighbor(cur, func(y int) {
					if y == w {
						reached = true
					}
					if !seen[y] && allowed(y) {
						seen[y] = true
						queue = append(queue, y)
					}
				})
				if reached && cur != u {
					return true
				}
			}
			return false
		}()
		if ok && (!found || threshold.Greater(best)) {
			best = threshold
			found = true
		}
	}
	return best, found
}

// TestMaxMinLemma1Quick property-checks Lemma 1 on random views: whenever a
// replacement path exists, MAX_MIN terminates with a structurally valid path
// whose bottleneck priority equals the brute-force optimum.
func TestMaxMinLemma1Quick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(t, rng, 4+rng.Intn(14), 0.3)
		metric := []view.Metric{view.MetricID, view.MetricDegree}[rng.Intn(2)]
		base := view.BasePriorities(g, metric)
		for v := 0; v < g.N(); v++ {
			lv := view.NewLocal(g, v, 3, base)
			nbrs := lv.Neighbors()
			for i := 0; i < len(nbrs); i++ {
				for j := i + 1; j < len(nbrs); j++ {
					u, w := nbrs[i], nbrs[j]
					path, ok := core.MaxMinPath(lv, u, w)
					if ok != core.ReplacementPathExists(lv, u, w) {
						return false
					}
					if !ok {
						continue
					}
					if !validatePath(lv, u, w, path) {
						return false
					}
					if len(path) == 0 {
						if !lv.HasEdge(u, w) {
							return false
						}
						continue
					}
					// The minimum priority on the returned path must match
					// the brute-force optimal bottleneck.
					minPr := lv.Pr(path[0])
					for _, x := range path[1:] {
						if lv.Pr(x).Less(minPr) {
							minPr = lv.Pr(x)
						}
					}
					want, found := bruteBottleneck(lv, u, w)
					if !found || want != minPr {
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(67))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMaxMinFigure2 reproduces the Figure 2 scenario: a visited node y at
// the far end has the highest priority, and the maximal replacement path
// walks through progressively lower-priority intermediates (u, y, 6, 4, w).
func TestMaxMinFigure2(t *testing.T) {
	// Ids: v=2, u=0, w=1, y=8 (visited), and intermediates 4, 5, 6, 7 as in
	// the figure. Topology (consistent with the figure's description):
	//   u adjacent to y and 7 and 5; y-6, 7-6, 6-4, 5-3?; 4-w, 3-w.
	// We keep the essential structure: the max-min chain picks 4 for
	// (u,w), then 6 for (u,4), then y for (u,6).
	edges := [][2]int{
		{0, 8}, {0, 7}, {0, 3}, // u's links: y, 7, and low node 3
		{8, 6}, {7, 6}, // y and 7 reach 6
		{6, 4},         // 6 reaches 4
		{4, 1}, {3, 1}, // 4 and 3 reach w
		{2, 0}, {2, 1}, // v adjacent to u and w
	}
	g, err := graph.FromEdges(9, edges)
	if err != nil {
		t.Fatal(err)
	}
	base := view.BasePriorities(g, view.MetricID)
	lv := view.NewLocal(g, 2, 0, base)
	lv.MarkVisited(8) // y is a visited node

	path, ok := core.MaxMinPath(lv, 0, 1)
	if !ok {
		t.Fatal("no maximal replacement path found")
	}
	want := []int{8, 6, 4}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

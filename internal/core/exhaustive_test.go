package core_test

import (
	"fmt"
	"slices"
	"testing"

	"adhocbcast/internal/core"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/view"
)

// isMember reports whether x is a member of lv.
func isMember(lv *view.Local, x int) bool {
	_, ok := slices.BinarySearch(lv.Members(), int32(x))
	return ok
}

// viewDegree returns the number of view-neighbors ForEachNeighbor lists for x.
func viewDegree(lv *view.Local, x int) int {
	deg := 0
	lv.ForEachNeighbor(x, func(int) { deg++ })
	return deg
}

// TestEvaluatorExhaustiveSmallWorlds checks the kernel on every small world
// there is rather than on samples: every labelled connected graph on up to 6
// vertices (26 704 of them at n = 6) × every owner × 1-, 2-, 3-hop and global
// views × id and degree priorities × the broadcast states {nothing known,
// each single other node visited, one visited and one designated}. The
// generic condition with and without the visited union, the strong condition
// and its restrictions to 1 and 2 hops must equal the references, and strong
// must imply generic. -short and the race detector (which has nothing to find
// in single-threaded code and would take minutes) stop at 5 vertices.
func TestEvaluatorExhaustiveSmallWorlds(t *testing.T) {
	maxN := 6
	if testing.Short() || raceEnabled {
		maxN = 5
	}
	// The graphs are dealt round-robin to parallel shards, each with its own
	// evaluator; about 20 CPU-seconds at n = 6.
	const shards = 4
	for shard := 0; shard < shards; shard++ {
		t.Run(fmt.Sprintf("shard%d", shard), func(t *testing.T) {
			t.Parallel()
			graphs, cases := 0, 0
			for n := 1; n <= maxN; n++ {
				g, c := exhaustSmallWorlds(t, n, shard, shards)
				graphs, cases = graphs+g, cases+c
			}
			t.Logf("%d connected graphs, %d (view, state) cases", graphs, cases)
		})
	}
}

// exhaustSmallWorlds runs the shard's share of the connected graphs on n
// vertices and returns how many graphs and (view, state) cases that was.
func exhaustSmallWorlds(t *testing.T, n, shard, shards int) (graphs, cases int) {
	ev := conditionsOf(core.NewEvaluator(n))
	b := view.NewBuilder()
	forEachConnectedGraph(t, n, shard, shards, func(g *graph.Graph) {
		graphs++
		for _, metric := range []view.Metric{view.MetricID, view.MetricDegree} {
			base := view.BasePriorities(g, metric)
			for owner := 0; owner < n; owner++ {
				ecc := 0
				for _, d := range g.BFSDistances(owner) {
					ecc = max(ecc, d)
				}
				for _, hops := range []int{1, 2, 3, 0} {
					if hops > ecc {
						// No node is hops away: every node a member, no
						// fringe — the global view, which comes last.
						continue
					}
					lv := b.Build(g, owner, hops, base)
					rv := newRefView(lv)
					ev.check(t, rv, "evaluator")
					cases++
					for x := 0; x < n; x++ {
						// Marking an invisible node changes nothing.
						if x != owner && isMember(lv, x) {
							lv.ResetStatus()
							lv.MarkVisited(x)
							ev.check(t, rv, "evaluator")
							cases++
						}
					}
					if n >= 3 {
						lv.ResetStatus()
						lv.MarkVisited((owner + 1) % n)
						lv.MarkDesignated((owner + 2) % n)
						ev.check(t, rv, "evaluator")
						cases++
					}
				}
			}
		}
	})
	return graphs, cases
}

// forEachConnectedGraph calls fn with the shard's share — every shards-th edge
// subset — of the labelled connected graphs on n vertices.
func forEachConnectedGraph(t *testing.T, n, shard, shards int, fn func(g *graph.Graph)) {
	var pairs [][2]int
	for u := 0; u < n; u++ {
		for w := u + 1; w < n; w++ {
			pairs = append(pairs, [2]int{u, w})
		}
	}
	for mask := shard; mask < 1<<len(pairs); mask += shards {
		var edges [][2]int
		for i, p := range pairs {
			if mask>>i&1 == 1 {
				edges = append(edges, p)
			}
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		if g.Connected() {
			fn(g)
		}
	}
}

// TestSetMatchesNewLocalExhaustive checks the builder of whole view sets
// against the builder of single views on every small world: for every
// labelled connected graph on up to 6 vertices and global, 1-, 2- and 3-hop
// views, each view of the Set equals NewLocal's in members, fringe bits, and
// in what HasEdge, Degree and Pr answer for every vertex and pair — through
// one Set and one Builder, so each build reuses the slabs of the last.
func TestSetMatchesNewLocalExhaustive(t *testing.T) {
	maxN := 6
	if testing.Short() || raceEnabled {
		maxN = 5
	}
	b, s := view.NewBuilder(), &view.Set{}
	graphs := 0
	for n := 1; n <= maxN; n++ {
		forEachConnectedGraph(t, n, 0, 1, func(g *graph.Graph) {
			graphs++
			base := view.BasePriorities(g, view.MetricDegree)
			for _, hops := range []int{0, 1, 2, 3} {
				b.BuildAll(s, g, hops, view.MetricDegree, 1, nil, nil)
				for v := 0; v < n; v++ {
					got, want := s.View(v), view.NewLocal(g, v, hops, base)
					same := slices.Equal(got.Members(), want.Members())
					for i := 0; same && i < len(want.Members()); i++ {
						same = got.FringeAt(i) == want.FringeAt(i)
					}
					for x := 0; same && x < n; x++ {
						same = got.Pr(x) == want.Pr(x) && viewDegree(got, x) == viewDegree(want, x)
						for y := 0; same && y < n; y++ {
							same = got.HasEdge(x, y) == want.HasEdge(x, y)
						}
					}
					if !same {
						t.Fatalf("n=%d hops=%d: view %d of the set differs from NewLocal's on edges %v (members %v vs %v)",
							n, hops, v, g.Edges(), got.Members(), want.Members())
					}
				}
			}
		})
	}
	t.Logf("%d connected graphs", graphs)
}

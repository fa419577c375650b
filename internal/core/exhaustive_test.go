package core_test

import (
	"fmt"
	"testing"

	"adhocbcast/internal/core"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/view"
)

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
		if !g.Connected() {
			continue
		}
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
						if x != owner && lv.IsVisible(x) {
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
	}
	return graphs, cases
}

package core_test

import (
	"fmt"
	"testing"

	"adhocbcast/internal/core"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/view"
)

// TestPristineCoverageSettles proves the lemma the simulator's settled
// verdicts rest on: a broadcast only ever raises the statuses of the owner's
// other view members (un-visited 1 < designated 1.5 < visited 2), so a node
// that is covered on its pristine view stays covered at every later state,
// as long as its own status stays un-visited. Every labelled connected graph
// on up to 5 vertices × every owner × 1-, 2-, 3-hop and global views × the id,
// degree and NCR metrics × every assignment of {un-visited, designated,
// visited} to the owner's other members: pristine-covered must imply covered,
// for the generic and for the strong condition. At 6 vertices every subset of
// visited members is checked; -short and the race detector stop at 5.
func TestPristineCoverageSettles(t *testing.T) {
	maxN := 6
	if testing.Short() || raceEnabled {
		maxN = 5
	}
	const shards = 4
	for shard := 0; shard < shards; shard++ {
		t.Run(fmt.Sprintf("shard%d", shard), func(t *testing.T) {
			t.Parallel()
			ev := core.NewEvaluator(maxN)
			b := view.NewBuilder()
			views, states := 0, 0
			for n := 1; n <= maxN; n++ {
				forEachConnectedGraph(t, n, shard, shards, func(g *graph.Graph) {
					forEachSmallView(g, b, func(lv *view.Local, hops int, metric view.Metric) {
						views++
						generic, strong := ev.Covered(lv), ev.StrongCovered(lv)
						if !generic && !strong {
							return // nothing to settle
						}
						statuses := 3 // un-visited, visited, designated
						if n == 6 {
							statuses = 2 // un-visited, visited
						}
						forEachOtherStatus(lv, statuses, false, func(marks []int) {
							states++
							if generic && !ev.Covered(lv) || strong && !ev.StrongCovered(lv) {
								t.Fatalf("edges %v, owner %d, %d hops, %v metric: covered on the pristine view (generic %v, strong %v) but not under member statuses %v (generic %v, strong %v)",
									g.Edges(), lv.Owner, hops, metric, generic, strong, marks, ev.Covered(lv), ev.StrongCovered(lv))
							}
						})
					})
				})
			}
			t.Logf("%d views, %d states of pristine-covered views", views, states)
		})
	}
}

// ownDesignation lists, per condition, the smallest world on which the lemma
// fails once the owner's own status moves; both are why settled verdicts are
// off for every engine that designates. Strong: a single edge, owner 0, 1-hop
// views, id priorities. Pristine, neighbor 1 outranks the owner and is the
// one component dominating its neighbors; once the owner is designated
// (priority 1.5) it ranks below, H is empty, and nothing dominates. Generic
// (which holds trivially with one neighbor): the 4-cycle 0-1-2-3, owner 0,
// 2-hop views. Pristine, node 2 outranks the owner and joins neighbors 1 and
// 3; designated, the owner outranks every other member, and 1 and 3 share no
// link.
var ownDesignation = []struct {
	cond  string
	n     int
	edges [][2]int
	owner int
	hops  int
}{
	{cond: "strong", n: 2, edges: [][2]int{{0, 1}}, owner: 0, hops: 1},
	{cond: "generic", n: 4, edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}, owner: 0, hops: 2},
}

// TestOwnDesignationBreaksSettling checks that each ownDesignation world
// breaks the implication for its condition, and that it is the smallest
// world that does: no connected graph with fewer vertices, or as many and
// fewer edges, has an owner, view, metric and assignment of statuses to the
// other members under which a pristine-covered owner, designated itself, is
// uncovered by that condition.
func TestOwnDesignationBreaksSettling(t *testing.T) {
	b := view.NewBuilder()
	for _, d := range ownDesignation {
		t.Run(d.cond, func(t *testing.T) {
			ev := core.NewEvaluator(d.n)
			covered := ev.Covered
			if d.cond == "strong" {
				covered = ev.StrongCovered
			}
			g := buildGraph(t, d.n, d.edges)
			lv := view.NewLocal(g, d.owner, d.hops, view.BasePriorities(g, view.MetricID))
			if !covered(lv) {
				t.Fatalf("the owner of %v is not covered on its pristine view", d.edges)
			}
			lv.MarkDesignated(d.owner)
			if covered(lv) {
				t.Fatalf("the designated owner of %v is still covered: the world no longer breaks the lemma", d.edges)
			}
			for n := 1; n <= d.n; n++ {
				forEachConnectedGraph(t, n, 0, 1, func(g *graph.Graph) {
					if n == d.n && g.M() >= len(d.edges) {
						return
					}
					forEachSmallView(g, b, func(lv *view.Local, hops int, metric view.Metric) {
						if !covered(lv) {
							return
						}
						forEachOtherStatus(lv, 3, true, func(marks []int) {
							if !covered(lv) {
								t.Fatalf("edges %v, owner %d, %d hops, %v metric, member statuses %v with the owner designated: a counterexample smaller than %v",
									g.Edges(), lv.Owner, hops, metric, marks, d.edges)
							}
						})
					})
				})
			}
		})
	}
}

// forEachSmallView calls fn with the view of every owner of g under 1-, 2-,
// 3-hop and global views and every metric. A k-hop view that reaches no node
// k hops away is the global view, which comes last, and is skipped.
func forEachSmallView(g *graph.Graph, b *view.Builder, fn func(lv *view.Local, hops int, metric view.Metric)) {
	for _, metric := range []view.Metric{view.MetricID, view.MetricDegree, view.MetricNCR} {
		base := view.BasePriorities(g, metric)
		for owner := 0; owner < g.N(); owner++ {
			ecc := 0
			for _, d := range g.BFSDistances(owner) {
				ecc = max(ecc, d)
			}
			for _, hops := range []int{1, 2, 3, 0} {
				if hops > ecc {
					continue
				}
				fn(b.Build(g, owner, hops, base), hops, metric)
			}
		}
	}
}

// forEachOtherStatus sets lv to every assignment of the first statuses of
// {un-visited, visited, designated} to the owner's other members, the owner
// itself designated when ownDesignated is set (else un-visited), and calls fn
// with each; marks lists the assignment per member (0 un-visited, 1 visited,
// 2 designated). It leaves lv with its last assignment.
func forEachOtherStatus(lv *view.Local, statuses int, ownDesignated bool, fn func(marks []int)) {
	var others []int
	for _, x := range lv.Members() {
		if int(x) != lv.Owner {
			others = append(others, int(x))
		}
	}
	marks := make([]int, len(others))
	for {
		lv.ResetStatus()
		if ownDesignated {
			lv.MarkDesignated(lv.Owner)
		}
		for i, x := range others {
			switch marks[i] {
			case 1:
				lv.MarkVisited(x)
			case 2:
				lv.MarkDesignated(x)
			}
		}
		fn(marks)
		i := 0
		for ; i < len(marks); i++ {
			if marks[i]++; marks[i] < statuses {
				break
			}
			marks[i] = 0
		}
		if i == len(marks) {
			return
		}
	}
}

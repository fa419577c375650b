package protocol

import (
	"math/rand"
	"reflect"
	"testing"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/view"
)

func mkGraph(t *testing.T, n int, edges [][2]int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func mkView(t *testing.T, g *graph.Graph, owner, k int) *view.Local {
	t.Helper()
	return view.NewLocal(g, owner, k, view.BasePriorities(g, view.MetricID))
}

func TestGreedyCoverEmptyTargets(t *testing.T) {
	g := mkGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
	lv := mkView(t, g, 0, 2)
	if got := GreedyCover(lv, []int{1}, nil); got != nil {
		t.Fatalf("GreedyCover with no targets = %v, want nil", got)
	}
}

func TestGreedyCoverPicksMaxEffectiveDegree(t *testing.T) {
	// Owner 0 with candidates 1, 2: candidate 2 covers targets {4,5},
	// candidate 1 covers {3}. Greedy must pick 2 first, then 1.
	g := mkGraph(t, 6, [][2]int{
		{0, 1}, {0, 2},
		{1, 3},
		{2, 4}, {2, 5},
	})
	lv := mkView(t, g, 0, 2)
	got := GreedyCover(lv, []int{1, 2}, []int{3, 4, 5})
	if !reflect.DeepEqual(got, []int{2, 1}) {
		t.Fatalf("GreedyCover = %v, want [2 1]", got)
	}
}

func TestGreedyCoverTieBreakLowestID(t *testing.T) {
	// Candidates 1 and 2 both cover exactly one target; 1 must be chosen
	// first.
	g := mkGraph(t, 5, [][2]int{
		{0, 1}, {0, 2},
		{1, 3}, {2, 4},
	})
	lv := mkView(t, g, 0, 2)
	got := GreedyCover(lv, []int{2, 1}, []int{3, 4})
	if !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("GreedyCover = %v, want [1 2] (lowest id first on ties)", got)
	}
}

func TestGreedyCoverStopsWhenStuck(t *testing.T) {
	// Target 4 is adjacent to no candidate: greedy must terminate with a
	// partial cover instead of spinning.
	g := mkGraph(t, 5, [][2]int{{0, 1}, {1, 3}, {2, 4}})
	lv := mkView(t, g, 0, 0)
	got := GreedyCover(lv, []int{1}, []int{3, 4})
	if !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("GreedyCover = %v, want [1]", got)
	}
}

func TestGreedyCoverDeduplicatesTargets(t *testing.T) {
	g := mkGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
	lv := mkView(t, g, 0, 2)
	got := GreedyCover(lv, []int{1}, []int{2, 2, 2})
	if !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("GreedyCover = %v, want [1]", got)
	}
}

// TestGreedyCoverCoversAllCoverableQuick property-checks that every target
// adjacent to at least one candidate ends up covered by the selection.
func TestGreedyCoverCoversAllCoverableQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		net, err := geo.Generate(geo.Config{N: 30, AvgDegree: 6}, rng)
		if err != nil {
			t.Fatal(err)
		}
		owner := rng.Intn(30)
		lv := view.NewLocal(net.G, owner, 2, view.BasePriorities(net.G, view.MetricID))
		xs := lv.Neighbors()
		ys := lv.TwoHopTargets()
		selected := GreedyCover(lv, xs, ys)
		covered := make(map[int]bool)
		for _, w := range selected {
			lv.ForEachNeighbor(w, func(y int) { covered[y] = true })
		}
		for _, y := range ys {
			// Every 2-hop target is adjacent to some neighbor by
			// definition, so all must be covered.
			if !covered[y] {
				t.Fatalf("trial %d: target %d uncovered by %v", trial, y, selected)
			}
		}
		// The selection must come from the candidate set without repeats.
		seen := map[int]bool{}
		inXs := map[int]bool{}
		for _, x := range xs {
			inXs[x] = true
		}
		for _, w := range selected {
			if seen[w] || !inXs[w] {
				t.Fatalf("trial %d: invalid selection %v", trial, selected)
			}
			seen[w] = true
		}
	}
}

// fakeState builds a NodeState for designator unit tests without running a
// simulation.
func fakeState(lv *view.Local, from int, pkt sim.Packet) *sim.NodeState {
	return &sim.NodeState{
		ID:          lv.Owner,
		View:        lv,
		Received:    true,
		FirstFrom:   from,
		FirstPacket: &pkt,
		LastPacket:  &pkt,
	}
}

// dpTestGraph: owner 2 received from 0. N(2) = {0, 1, 3}; N(0) = {1, 2};
// 2-hop targets of 2 are {4, 5} via 3, {6} via 1.
func dpTestGraph(t *testing.T) *graph.Graph {
	return mkGraph(t, 7, [][2]int{
		{0, 1}, {0, 2},
		{2, 1}, {2, 3},
		{3, 4}, {3, 5},
		{1, 6},
	})
}

func TestDPDesignate(t *testing.T) {
	g := dpTestGraph(t)
	lv := mkView(t, g, 2, 2)
	st := fakeState(lv, 0, sim.Packet{Source: 0})
	got := dpDesignate(variantDP)(nil, st)
	// X = N(2) - N(0) - {0} = {3}; 1 is excluded (neighbor of sender 0).
	// Y = {4,5,6} - N(0) = {4,5,6}; 6 is only coverable by 1, which is not
	// a candidate, so greedy selects 3 and stops.
	if !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("DP designate = %v, want [3]", got)
	}
}

func TestDPDesignateAtSource(t *testing.T) {
	g := dpTestGraph(t)
	lv := mkView(t, g, 2, 2)
	st := fakeState(lv, -1, sim.Packet{Source: 2})
	got := dpDesignate(variantDP)(nil, st)
	// At the source every neighbor is a candidate; targets {4,5,6} need
	// 3 (covers 4,5) and 1 (covers 6). 0 covers nothing new.
	if !reflect.DeepEqual(got, []int{3, 1}) {
		t.Fatalf("source designate = %v, want [3 1]", got)
	}
}

func TestPDPDesignateRemovesCommonNeighborCoverage(t *testing.T) {
	// Owner 2 received from 0; node 1 is a common neighbor of 0 and 2, so
	// PDP removes N(1) ∋ 6 from the targets while DP keeps it.
	g := dpTestGraph(t)
	lvDP := mkView(t, g, 2, 2)
	stDP := fakeState(lvDP, 0, sim.Packet{Source: 0})
	dp := dpDesignate(variantDP)(nil, stDP)

	lvPDP := mkView(t, g, 2, 2)
	stPDP := fakeState(lvPDP, 0, sim.Packet{Source: 0})
	pdp := dpDesignate(variantPDP)(nil, stPDP)

	// Both select {3}: the observable difference is the target set, which
	// here changes nothing because 6 was uncoverable anyway. Use a richer
	// graph where DP must select an extra forwarder.
	if !reflect.DeepEqual(dp, pdp) {
		t.Fatalf("unexpected divergence: dp=%v pdp=%v", dp, pdp)
	}

	// Add node 7 adjacent to 2 and 6: now DP designates {3, 7} (7 covers
	// 6) while PDP knows 6 ∈ N(1) with 1 ∈ N(0) ∩ N(2) and skips it.
	g2 := mkGraph(t, 8, [][2]int{
		{0, 1}, {0, 2},
		{2, 1}, {2, 3},
		{3, 4}, {3, 5},
		{1, 6},
		{2, 7}, {7, 6},
	})
	lv := mkView(t, g2, 2, 2)
	st := fakeState(lv, 0, sim.Packet{Source: 0})
	dp = dpDesignate(variantDP)(nil, st)
	if !reflect.DeepEqual(dp, []int{3, 7}) {
		t.Fatalf("DP designate = %v, want [3 7]", dp)
	}
	lv = mkView(t, g2, 2, 2)
	st = fakeState(lv, 0, sim.Packet{Source: 0})
	pdp = dpDesignate(variantPDP)(nil, st)
	if !reflect.DeepEqual(pdp, []int{3}) {
		t.Fatalf("PDP designate = %v, want [3]", pdp)
	}
}

func TestTDPDesignateUsesPiggybackedTwoHop(t *testing.T) {
	g := dpTestGraph(t)
	lv := mkView(t, g, 2, 2)
	// The sender piggybacked N2(0) ∋ 6: TDP removes it from the targets.
	pkt := sim.Packet{Source: 0, Extra: []int{0, 1, 2, 6}}
	st := fakeState(lv, 0, pkt)
	got := dpDesignate(variantTDP)(nil, st)
	if !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("TDP designate = %v, want [3]", got)
	}
}

func TestTwoHopExtra(t *testing.T) {
	g := dpTestGraph(t)
	lv := mkView(t, g, 2, 2)
	st := fakeState(lv, 0, sim.Packet{Source: 0})
	got := twoHopExtra(nil, st)
	want := []int{2, 0, 1, 3, 4, 5, 6} // self, neighbors, 2-hop targets
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("twoHopExtra = %v, want %v", got, want)
	}
}

func TestHybridDesignateAtMostOne(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 40; trial++ {
		net, err := geo.Generate(geo.Config{N: 40, AvgDegree: 8}, rng)
		if err != nil {
			t.Fatal(err)
		}
		owner := rng.Intn(40)
		lv := view.NewLocal(net.G, owner, 2, view.BasePriorities(net.G, view.MetricID))
		nbrs := lv.Neighbors()
		from := -1
		if len(nbrs) > 0 {
			from = nbrs[rng.Intn(len(nbrs))]
		}
		st := fakeState(lv, from, sim.Packet{Source: from})
		for _, maxDeg := range []bool{true, false} {
			got := HybridDesignate(maxDeg)(nil, st)
			if len(got) > 1 {
				t.Fatalf("hybrid designated %v (more than one)", got)
			}
			if len(got) == 1 && got[0] == from {
				t.Fatal("hybrid designated the sender")
			}
		}
	}
}

func TestHybridDesignateSkipsSenderAndItsDesignees(t *testing.T) {
	// Owner 0 with neighbors 1 (sender), 2, 3. Sender designated 2. Both 2
	// and 3 cover 2-hop targets, but only 3 is eligible.
	g := mkGraph(t, 6, [][2]int{
		{0, 1}, {0, 2}, {0, 3},
		{2, 4}, {3, 5},
	})
	lv := mkView(t, g, 0, 2)
	pkt := sim.Packet{Source: 1, Trail: []sim.TrailEntry{{Node: 1, Designated: []int{2}}}}
	st := fakeState(lv, 1, pkt)
	got := HybridDesignate(true)(nil, st)
	if !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("hybrid designate = %v, want [3]", got)
	}
}

func TestHybridDesignateNothingUncovered(t *testing.T) {
	// Every 2-hop target of owner 0 sits in N(2), and the sender 1
	// designated 2: nothing is left uncovered, so no designation happens.
	g := mkGraph(t, 5, [][2]int{
		{0, 1}, {0, 2},
		{2, 3}, {2, 4},
	})
	lv := mkView(t, g, 0, 2)
	pkt := sim.Packet{Source: 1, Trail: []sim.TrailEntry{{Node: 1, Designated: []int{2}}}}
	st := fakeState(lv, 1, pkt)
	if got := HybridDesignate(true)(nil, st); got != nil {
		t.Fatalf("hybrid designate = %v, want nil", got)
	}
}

func TestNDDesignateSkipsVisitedCandidatesAndCoveredTargets(t *testing.T) {
	// Owner 0 with neighbors 1, 2: 1 is known visited, so it is not a
	// candidate, and its neighborhood {3} is already covered; only target 4
	// remains, covered by candidate 2.
	g := mkGraph(t, 5, [][2]int{
		{0, 1}, {0, 2},
		{1, 3}, {2, 4},
	})
	lv := mkView(t, g, 0, 2)
	lv.MarkVisited(1)
	st := fakeState(lv, 1, sim.Packet{Source: 1})
	got := NDDesignate(nil, st)
	if !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("ND designate = %v, want [2]", got)
	}
}

func TestMPRSetsCoverTwoHopNeighborhood(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	net, err := geo.Generate(geo.Config{N: 40, AvgDegree: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	base := view.BasePriorities(net.G, view.MetricID)
	for v := 0; v < 40; v++ {
		lv := view.NewLocal(net.G, v, 2, base)
		mprs := GreedyCover(lv, lv.Neighbors(), lv.TwoHopTargets())
		covered := make(map[int]bool)
		for _, w := range mprs {
			net.G.ForEachNeighbor(w, func(y int) { covered[y] = true })
		}
		for _, y := range lv.TwoHopTargets() {
			if !covered[y] {
				t.Fatalf("node %d: 2-hop neighbor %d uncovered by MPR set %v", v, y, mprs)
			}
		}
	}
}

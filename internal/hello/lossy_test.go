package hello

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
)

// losslessMatchesDefinition2 is the package's key property, the Section 4.3
// claim that k hello rounds give exactly the k-hop view: on a random connected
// geometric graph of n nodes and average degree d, a lossless exchange of k
// rounds gives every node exactly the analytic k-hop view Gk(v)/Nk(v) of
// Definition 2 (graph.LocalView) — same visible set, same edge set — with no
// node able to claim incompleteness and zero divergence against the truth.
// A seed with no connected placement holds trivially.
func losslessMatchesDefinition2(n int, d float64, seed int64, k int) bool {
	rng := rand.New(rand.NewSource(seed))
	net, err := geo.Generate(geo.Config{N: n, AvgDegree: d}, rng)
	if err != nil {
		return true // no connected placement; skip
	}
	g := net.G
	vs, err := Exchange(g, Config{Rounds: k, Seed: seed})
	if err != nil {
		return false
	}
	for v := 0; v < g.N(); v++ {
		wantG, wantVis := g.LocalView(v, k)
		gotG := vs.Graph(v)
		for u := 0; u < g.N(); u++ {
			if vs.Known(v, u) != wantVis[u] {
				return false
			}
		}
		if gotG.M() != wantG.M() {
			return false
		}
		for _, e := range wantG.Edges() {
			if !gotG.HasEdge(e[0], e[1]) {
				return false
			}
		}
		if vs.Incomplete(v) {
			return false
		}
	}
	div, err := vs.Divergence(g)
	if err != nil {
		return false
	}
	return div.MissingLinks == 0 && div.PhantomLinks == 0 &&
		div.DivergentNodes == 0 && div.IncompleteNodes == 0
}

// TestExchangeLosslessEqualsDefinition2 checks losslessMatchesDefinition2
// for a random k in 1..4 on 30-node graphs.
func TestExchangeLosslessEqualsDefinition2(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		return losslessMatchesDefinition2(30, 6, seed, int(kRaw%4)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// TestKRoundsEqualDefinition2Quick checks losslessMatchesDefinition2 for
// every k in 1..4 on each of its 25-node graphs.
func TestKRoundsEqualDefinition2Quick(t *testing.T) {
	f := func(seed int64) bool {
		for k := 1; k <= 4; k++ {
			if !losslessMatchesDefinition2(25, 5, seed, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

// TestExchangeDeterministic pins the seed contract: the same (graph, Config)
// always produces identical views, and distinct seeds produce distinct loss
// patterns (with overwhelming probability on a dense-enough exchange).
func TestExchangeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net, err := geo.Generate(geo.Config{N: 40, AvgDegree: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Rounds: 3, LossRate: 0.3, Seed: 99}
	a, err := Exchange(net.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Exchange(net.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < net.G.N(); v++ {
		if a.Incomplete(v) != b.Incomplete(v) {
			t.Fatalf("node %d: incomplete flag differs across identical exchanges", v)
		}
		ga, gb := a.Graph(v), b.Graph(v)
		if ga.M() != gb.M() {
			t.Fatalf("node %d: %d vs %d learned links across identical exchanges", v, ga.M(), gb.M())
		}
		for _, e := range ga.Edges() {
			if !gb.HasEdge(e[0], e[1]) {
				t.Fatalf("node %d: link %v differs across identical exchanges", v, e)
			}
		}
		for u := 0; u < net.G.N(); u++ {
			if a.Receipts(v, u) != b.Receipts(v, u) {
				t.Fatalf("receipts(%d,%d) differ across identical exchanges", v, u)
			}
		}
	}

	c, err := Exchange(net.G, Config{Rounds: 3, LossRate: 0.3, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for v := 0; same && v < net.G.N(); v++ {
		for u := 0; u < net.G.N(); u++ {
			if a.Receipts(v, u) != c.Receipts(v, u) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 99 and 100 produced identical loss patterns")
	}
}

// TestExchangeLossyDetection checks the incompleteness signal on a concrete
// loss pattern: a node that misses one of its neighbor's hellos knows its
// view may be incomplete, and the divergence report accounts for the links
// the lost hello carried.
func TestExchangeLossyDetection(t *testing.T) {
	// Path 0-1-2-3. Drop every hello 2 sends to 1 (but nothing else). Only
	// node 2's hellos could reveal link {1,2} to node 1 (the endpoints share
	// no common neighbor), so node 1 learns {0,1} from 0 but never hears of
	// node 2 at all.
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	p := New(g)
	drop := func(v, u int) bool { return v == 1 && u == 2 }
	p.roundWith(drop)
	p.roundWith(drop)
	vg := p.ViewGraph(1)
	if vg.HasEdge(1, 2) || vg.Degree(2) > 0 {
		t.Fatal("node 1 learned about node 2 despite the dropped hellos")
	}
	// Node 3, on the intact side, hears node 2 relay {1,2} in round 2 as
	// usual: the loss stays local to the (2 -> 1) channel.
	vg3 := p.ViewGraph(3)
	if !vg3.HasEdge(1, 2) {
		t.Fatal("node 3 lost knowledge it should have")
	}

	// The same pattern through Exchange at a high loss rate: every flagged
	// node is one with a missed receipt from a view-neighbor, and aggregate
	// divergence is consistent with the per-node reports.
	rng := rand.New(rand.NewSource(11))
	net, err := geo.Generate(geo.Config{N: 50, AvgDegree: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := Exchange(net.G, Config{Rounds: 2, LossRate: 0.4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	div, err := vs.Divergence(net.G)
	if err != nil {
		t.Fatal(err)
	}
	if div.MissingLinks == 0 || div.IncompleteNodes == 0 {
		t.Fatalf("40%% hello loss produced no measurable divergence: %+v", div)
	}
	if div.PhantomLinks != 0 {
		t.Fatalf("static topology produced %d phantom links", div.PhantomLinks)
	}
	missing, incomplete, divergent := 0, 0, 0
	for v, nd := range div.Nodes {
		missing += nd.Missing
		if nd.Missing > 0 || nd.Phantom > 0 {
			divergent++
		}
		if nd.Incomplete {
			incomplete++
			if vs.Incomplete(v) != nd.Incomplete {
				t.Fatalf("node %d: divergence and views disagree on incompleteness", v)
			}
		}
		if nd.Incomplete {
			// The flag must be justified by an actual missed receipt.
			justified := false
			vs.Graph(v).ForEachNeighbor(v, func(u int) {
				if vs.Receipts(v, u) < vs.Rounds() {
					justified = true
				}
			})
			if !justified {
				t.Fatalf("node %d flagged incomplete with full receipts", v)
			}
		}
	}
	if missing != div.MissingLinks || incomplete != div.IncompleteNodes || divergent != div.DivergentNodes {
		t.Fatalf("aggregates inconsistent with per-node reports: %+v", div)
	}
}

// TestExchangeRejectsBadConfig pins the validation errors.
func TestExchangeRejectsBadConfig(t *testing.T) {
	g := graph.New(2)
	if _, err := Exchange(g, Config{Rounds: -1}); err == nil {
		t.Fatal("negative Rounds accepted")
	}
	if _, err := Exchange(g, Config{Rounds: 1, LossRate: 1}); err == nil {
		t.Fatal("LossRate 1 accepted")
	}
	if _, err := Exchange(g, Config{Rounds: 1, LossRate: -0.1}); err == nil {
		t.Fatal("negative LossRate accepted")
	}
}

package sim_test

import (
	"testing"

	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// TestStaleViewTopologyUsedForDecisions pins the SharedViews semantics: the
// coverage condition runs on the stale snapshot while packets propagate over
// the actual graph.
func TestStaleViewTopologyUsedForDecisions(t *testing.T) {
	// Actual topology: path 0-1-2-3. Stale view: the same path plus a
	// phantom link {1,3}. Node 2 sees its neighbors 1 and 3 directly
	// connected and prunes itself; in reality nothing else reaches node 3.
	actual := pathGraph(t, 4)
	stale := pathGraph(t, 4)
	if err := stale.AddEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(actual, 0, protocol.Generic(protocol.TimingFirstReceipt), sim.Config{
		Hops:  2,
		Views: sim.SharedViews{Topology: stale},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 3 {
		t.Fatalf("delivered = %d, want 3 (node 3 stranded by the phantom link)", res.Delivered)
	}
	for _, v := range res.Forward {
		if v == 2 {
			t.Fatal("node 2 forwarded despite the stale view showing it covered")
		}
	}

	// Control: with truthful views the same broadcast reaches everyone.
	res, err = sim.Run(actual, 0, protocol.Generic(protocol.TimingFirstReceipt), sim.Config{Hops: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullDelivery() {
		t.Fatalf("control run delivered %d/%d", res.Delivered, res.N)
	}
}

// TestStaleViewMissingLink checks the opposite direction: a link that exists
// in reality but not in the view is never used for pruning, so delivery
// still succeeds (extra links can only add redundancy).
func TestStaleViewMissingLink(t *testing.T) {
	actual := pathGraph(t, 4)
	if err := actual.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	stale := pathGraph(t, 4) // the {0,2} link is unknown
	res, err := sim.Run(actual, 0, protocol.Generic(protocol.TimingFirstReceipt), sim.Config{
		Hops:  2,
		Views: sim.SharedViews{Topology: stale},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullDelivery() {
		t.Fatalf("delivered %d/%d with a conservative stale view", res.Delivered, res.N)
	}
}

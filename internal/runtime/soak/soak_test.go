package soak

import "testing"

// TestSoakPartitionChurn is the acceptance soak: hundreds of live broadcasts
// under a partition + churn + loss + duplication nemesis with NACK recovery
// on, asserting 100% delivery to strictly reachable nodes, plus the
// fault-free sim-vs-live agreement check on the same topology, at the
// acceptance size of 200 broadcasts.
func TestSoakPartitionChurn(t *testing.T) {
	cfg := DefaultConfig(42, 200)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Error(v)
	}
	if rep.Broadcasts != cfg.Broadcasts {
		t.Errorf("completed %d broadcasts, want %d", rep.Broadcasts, cfg.Broadcasts)
	}
	if got := rep.DeliveryInvariantRatio(); got != 1.0 {
		t.Errorf("strict-reachable delivery %.4f (%d/%d), want 1.0",
			got, rep.DeliveredStrict, rep.StrictReachable)
	}
	// The adversary must actually have bitten, or the invariant is vacuous.
	if rep.DroppedLinkDown == 0 {
		t.Error("no link-down drops over the whole soak: partitions never hit traffic")
	}
	if rep.DroppedNodeDown == 0 {
		t.Error("no node-down drops over the whole soak: churn never hit traffic")
	}
	if rep.Lost == 0 {
		t.Error("no random losses over the whole soak")
	}
	if rep.NACKs == 0 || rep.Retransmits == 0 {
		t.Errorf("recovery never ran: %d NACKs, %d retransmits", rep.NACKs, rep.Retransmits)
	}
	// Churned nodes legitimately miss broadcasts: plain delivery should sit
	// below the strict invariant, proving the strict set is a real subset.
	if rep.Delivered == rep.Reachable && rep.DroppedNodeDown > 0 {
		t.Log("note: every reachable node delivered despite churn (unusually gentle run)")
	}
	if rep.StaticSetCompared != rep.StaticSetMatches {
		t.Errorf("static forward sets matched %d/%d", rep.StaticSetMatches, rep.StaticSetCompared)
	}
	t.Logf("soak: %d broadcasts, strict %d/%d, plain %d/%d, linkDrops %d, nodeDrops %d, lost %d, NACKs %d, retransmits %d",
		rep.Broadcasts, rep.DeliveredStrict, rep.StrictReachable,
		rep.Delivered, rep.Reachable,
		rep.DroppedLinkDown, rep.DroppedNodeDown, rep.Lost, rep.NACKs, rep.Retransmits)
	t.Logf("compare: delivery sim %.4f live %.4f, forward sim %.4f live %.4f, static sets %d/%d",
		rep.SimMeanDelivery, rep.LiveMeanDelivery,
		rep.SimMeanForward, rep.LiveMeanForward,
		rep.StaticSetMatches, rep.StaticSetCompared)
}

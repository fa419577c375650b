package protocol

import (
	"adhocbcast/internal/core"
	"adhocbcast/internal/sim"
)

// CoveredGeneric is the generic coverage condition of Section 3 as a
// CondFunc.
func CoveredGeneric(st *sim.NodeState, ev *core.Evaluator) bool { return ev.Covered(st.View) }

// CoveredStrong is the strong coverage condition of Section 6 as a CondFunc.
func CoveredStrong(st *sim.NodeState, ev *core.Evaluator) bool { return ev.StrongCovered(st.View) }

// The ids under which the simulator keeps settled verdicts (sim.Settler) of
// the two conditions whose pristine verdicts settle later ones: Options.settle
// names Covered by one of them. settleNever names the absent condition of an
// engine that covers no node (engine.SettleCondition).
const (
	settleGeneric = 1
	settleStrong  = 2
	settleNever   = 3
)

// Flooding returns the blind-flooding baseline: every node forwards the
// packet exactly once upon first receipt.
func Flooding() sim.Protocol {
	return New(Options{
		Name:      "Flooding",
		Timing:    TimingFirstReceipt,
		Selection: SelfPruning,
		SelfPrune: true,
	})
}

// Generic returns the new self-pruning algorithm derived from the generic
// framework, using the full coverage condition under the given timing policy
// (the "Generic" series of Figures 10, 12, 13, 14, 15, 16).
func Generic(t Timing) sim.Protocol {
	return New(Options{
		Name:      "Generic-" + t.String(),
		Timing:    t,
		Selection: SelfPruning,
		Covered:   CoveredGeneric,
		settle:    settleGeneric,
		SelfPrune: true,
	})
}

// GenericStrong returns the self-pruning algorithm using the cheaper strong
// coverage condition under the given timing policy.
func GenericStrong(t Timing) sim.Protocol {
	return New(Options{
		Name:      "GenericStrong-" + t.String(),
		Timing:    t,
		Selection: SelfPruning,
		Covered:   CoveredStrong,
		settle:    settleStrong,
		SelfPrune: true,
	})
}

// SelfPruningFR returns the pure self-pruning first-receipt scheme ("SP" in
// Figure 11); it equals Generic(TimingFirstReceipt) under another name.
func SelfPruningFR() sim.Protocol {
	return New(Options{
		Name:      "SP",
		Timing:    TimingFirstReceipt,
		Selection: SelfPruning,
		Covered:   CoveredGeneric,
		settle:    settleGeneric,
		SelfPrune: true,
	})
}

// NeighborDesignatingFR returns the pure neighbor-designating first-receipt
// scheme ("ND" in Figure 11): only designated nodes may forward, and
// forwarders greedily designate neighbors to cover the 2-hop nodes not
// already covered under the current view's broadcast state. The relaxed rule
// of Section 4.2 applies: a designated node is promoted to status 1.5 but
// declines to forward when the coverage condition holds at that priority.
func NeighborDesignatingFR() sim.Protocol {
	return New(Options{
		Name:      "ND",
		Timing:    TimingFirstReceipt,
		Selection: NeighborDesignating,
		Covered:   CoveredGeneric,
		settle:    settleGeneric,
		Designate: NDDesignate,
	})
}

// HybridMaxDeg returns the hybrid scheme of Section 6.4 that designates the
// neighbor with the maximum effective degree ("MaxDeg" in Figure 11). It is
// one of the new algorithms derived from the generic framework and uses the
// relaxed designation rule of Section 4.2: a designated node is promoted to
// status 1.5 but may still prune itself when the coverage condition holds at
// that raised priority. This is the variant that outperforms both pure
// self-pruning and pure neighbor-designating.
func HybridMaxDeg() sim.Protocol {
	return New(Options{
		Name:      "MaxDeg",
		Timing:    TimingFirstReceipt,
		Selection: Hybrid,
		Covered:   CoveredGeneric,
		settle:    settleGeneric,
		SelfPrune: true,
		Designate: HybridDesignate(true),
	})
}

// HybridMinPri returns the hybrid scheme that designates the neighbor with
// the lowest id ("MinPri" in Figure 11), under the same relaxed designation
// rule as HybridMaxDeg.
func HybridMinPri() sim.Protocol {
	return New(Options{
		Name:      "MinPri",
		Timing:    TimingFirstReceipt,
		Selection: Hybrid,
		Covered:   CoveredGeneric,
		settle:    settleGeneric,
		SelfPrune: true,
		Designate: HybridDesignate(false),
	})
}

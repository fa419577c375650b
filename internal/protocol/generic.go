package protocol

import (
	"adhocbcast/internal/core"
	"adhocbcast/internal/sim"
)

// CoveredGeneric adapts the generic coverage condition of Section 3 as a
// CondFunc, evaluated on the run's shared scratch evaluator.
func CoveredGeneric(rt sim.Runtime, st *sim.NodeState) bool {
	return rt.Evaluator().Covered(st.View)
}

// CoveredStrong adapts the strong coverage condition of Section 6 as a
// CondFunc, evaluated on the run's shared scratch evaluator.
func CoveredStrong(rt sim.Runtime, st *sim.NodeState) bool {
	return rt.Evaluator().StrongCovered(st.View)
}

// evalGeneric and evalStrong are the CoveredEval forms of the two conditions:
// the same predicates against a caller-supplied evaluator, letting the
// simulator's event loop precompute timer verdicts in parallel.
func evalGeneric(st *sim.NodeState, ev *core.Evaluator) bool { return ev.Covered(st.View) }
func evalStrong(st *sim.NodeState, ev *core.Evaluator) bool  { return ev.StrongCovered(st.View) }

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
		Name:        "Generic-" + t.String(),
		Timing:      t,
		Selection:   SelfPruning,
		Covered:     CoveredGeneric,
		CoveredEval: evalGeneric,
		SelfPrune:   true,
	})
}

// GenericStrong returns the self-pruning algorithm using the cheaper strong
// coverage condition under the given timing policy.
func GenericStrong(t Timing) sim.Protocol {
	return New(Options{
		Name:        "GenericStrong-" + t.String(),
		Timing:      t,
		Selection:   SelfPruning,
		Covered:     CoveredStrong,
		CoveredEval: evalStrong,
		SelfPrune:   true,
	})
}

// SelfPruningFR returns the pure self-pruning first-receipt scheme ("SP" in
// Figure 11); it equals Generic(TimingFirstReceipt) under another name.
func SelfPruningFR() sim.Protocol {
	return New(Options{
		Name:        "SP",
		Timing:      TimingFirstReceipt,
		Selection:   SelfPruning,
		Covered:     CoveredGeneric,
		CoveredEval: evalGeneric,
		SelfPrune:   true,
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
		Name:        "MaxDeg",
		Timing:      TimingFirstReceipt,
		Selection:   Hybrid,
		Covered:     CoveredGeneric,
		CoveredEval: evalGeneric,
		SelfPrune:   true,
		Designate:   HybridDesignate(true),
	})
}

// HybridMinPri returns the hybrid scheme that designates the neighbor with
// the lowest id ("MinPri" in Figure 11), under the same relaxed designation
// rule as HybridMaxDeg.
func HybridMinPri() sim.Protocol {
	return New(Options{
		Name:        "MinPri",
		Timing:      TimingFirstReceipt,
		Selection:   Hybrid,
		Covered:     CoveredGeneric,
		CoveredEval: evalGeneric,
		SelfPrune:   true,
		Designate:   HybridDesignate(false),
	})
}

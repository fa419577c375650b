package protocol

import (
	"adhocbcast/internal/core"
	"adhocbcast/internal/sim"
)

// WuLi returns Wu and Li's marking process with pruning Rules 1 and 2
// (Section 6.1): a node is a gateway iff it is marked (two unconnected
// neighbors) and neither pruning rule applies.
func WuLi() sim.Protocol {
	return New(Options{
		Name:      "WuLi",
		Timing:    TimingStatic,
		Selection: SelfPruning,
		Covered:   wuLiCovered,
		SelfPrune: true,
	})
}

// RuleK returns Dai and Wu's Rule-k algorithm (Section 6.1) in its
// restricted implementation: a node prunes itself when a single
// self-connected set of higher-priority coverage nodes dominates its
// neighborhood, with coverage nodes drawn from the neighbors (2-hop
// information) or the 2-hop neighborhood (3-hop information).
func RuleK() sim.Protocol {
	return New(Options{
		Name:      "Rule k",
		Timing:    TimingStatic,
		Selection: SelfPruning,
		Covered: func(st *sim.NodeState, ev *core.Evaluator) bool {
			return ev.StrongCoveredRestricted(st.View, ruleKDist(st))
		},
		SelfPrune: true,
	})
}

// Span returns the enhanced Span of Section 6.1: a node withdraws as a
// coordinator iff every pair of neighbors is connected directly or through
// at most two higher-priority intermediates (the coverage condition with
// replacement paths capped at three hops).
func Span() sim.Protocol {
	return New(Options{
		Name:      "Span",
		Timing:    TimingStatic,
		Selection: SelfPruning,
		Covered: func(st *sim.NodeState, _ *core.Evaluator) bool {
			return core.SpanCovered(st.View)
		},
		SelfPrune: true,
	})
}

// SBA returns Peng and Lu's Scalable Broadcast Algorithm (Section 6.2):
// first-receipt-with-backoff self-pruning where a node stays silent iff its
// whole neighborhood is covered by the visited neighbors it overheard.
func SBA() sim.Protocol {
	return New(Options{
		Name:      "SBA",
		Timing:    TimingBackoffRandom,
		Selection: SelfPruning,
		Covered:   sbaCovered,
		SelfPrune: true,
	})
}

// Stojmenovic returns Stojmenovic, Seddigh and Zunic's algorithm
// (Section 6.2): Wu-Li's marking process and pruning rules (originally
// driven by geographic positions standing in for 2-hop information) further
// reduced by an SBA-style neighbor-elimination pass during a backoff window.
// A node stays silent if it is statically covered (unmarked, or pruned by
// Rule 1/2) or if all its neighbors were eliminated by overheard forwards.
func Stojmenovic() sim.Protocol {
	return New(Options{
		Name:      "Stojmenovic",
		Timing:    TimingBackoffRandom,
		Selection: SelfPruning,
		Covered:   stojmenovicCovered,
		SelfPrune: true,
	})
}

// LimKimSelfPruning returns Lim and Kim's simple self-pruning scheme
// (Section 6.3): the first-receipt version of SBA — upon its first packet
// copy a node stays silent iff its whole neighborhood is covered by the
// visited neighbors it already knows about.
func LimKimSelfPruning() sim.Protocol {
	return New(Options{
		Name:      "LimKim-SP",
		Timing:    TimingFirstReceipt,
		Selection: SelfPruning,
		Covered:   sbaCovered,
		SelfPrune: true,
	})
}

// LENWB returns Sucec and Marsic's Lightweight and Efficient Network-Wide
// Broadcast (Section 6.2): on first receipt from u, a node stays silent iff
// all its neighbors are connected to u via higher-priority nodes.
func LENWB() sim.Protocol {
	return New(Options{
		Name:      "LENWB",
		Timing:    TimingFirstReceipt,
		Selection: SelfPruning,
		Covered: func(st *sim.NodeState, _ *core.Evaluator) bool {
			return core.LENWBCovered(st.View, st.FirstFrom)
		},
		SelfPrune: true,
	})
}

// AHBP returns Peng and Lu's Ad Hoc Broadcast Protocol (cited among the
// neighbor-designating methods in the paper's introduction): every
// forwarder selects broadcast relay gateways among its neighbors to cover
// the 2-hop nodes not already covered under the current broadcast state,
// and the selected gateways must forward (the strict rule).
func AHBP() sim.Protocol {
	return New(Options{
		Name:              "AHBP",
		Timing:            TimingFirstReceipt,
		Selection:         NeighborDesignating,
		Designate:         NDDesignate,
		StrictDesignation: true,
	})
}

// DP returns Lim and Kim's dominant pruning (Section 6.3): designated nodes
// forward and greedily designate neighbors in X = N(v)-N(u) to cover
// Y = N2(v)-N(u)-N(v).
func DP() sim.Protocol {
	return New(Options{
		Name:              "DP",
		Timing:            TimingFirstReceipt,
		Selection:         NeighborDesignating,
		Designate:         dpDesignate(variantDP),
		StrictDesignation: true,
	})
}

// PDP returns Lou and Wu's partial dominant pruning (Section 6.3): DP with
// the neighbors of the common neighbors of u and v removed from the target
// set.
func PDP() sim.Protocol {
	return New(Options{
		Name:              "PDP",
		Timing:            TimingFirstReceipt,
		Selection:         NeighborDesignating,
		Designate:         dpDesignate(variantPDP),
		StrictDesignation: true,
	})
}

// TDP returns Lou and Wu's total dominant pruning (Section 6.3): DP where
// the forwarder piggybacks its 2-hop neighborhood N2(u) and the next
// forwarder removes all of it from the target set.
func TDP() sim.Protocol {
	return New(Options{
		Name:              "TDP",
		Timing:            TimingFirstReceipt,
		Selection:         NeighborDesignating,
		Designate:         dpDesignate(variantTDP),
		StrictDesignation: true,
		Extra:             twoHopExtra,
	})
}

// wuLiCovered is the Wu-Li non-gateway predicate: unmarked, or unmarked by
// pruning Rule 1 or 2.
func wuLiCovered(st *sim.NodeState, _ *core.Evaluator) bool {
	if !core.WuLiMarked(st.View) {
		return true
	}
	return core.WuLiRule1(st.View) || core.WuLiRule2(st.View)
}

// ruleKDist is Rule k's coverage-node distance bound for the view in use.
func ruleKDist(st *sim.NodeState) int {
	maxDist := st.View.Hops() - 1
	if st.View.Hops() <= 0 {
		maxDist = 2 // global view: the paper's 3-hop-style restriction
	}
	if maxDist < 1 {
		maxDist = 1
	}
	return maxDist
}

// sbaCovered is SBA's silence predicate: the whole neighborhood is covered
// by the visited neighbors the node knows about.
func sbaCovered(st *sim.NodeState, _ *core.Evaluator) bool { return core.SBACovered(st.View) }

// stojmenovicCovered is Stojmenovic's silence predicate: statically covered
// by the Wu-Li rules, or dynamically covered by SBA-style neighbor
// elimination.
func stojmenovicCovered(st *sim.NodeState, _ *core.Evaluator) bool {
	lv := st.View
	if !core.WuLiMarked(lv) || core.WuLiRule1(lv) || core.WuLiRule2(lv) {
		return true
	}
	return core.SBACovered(lv)
}

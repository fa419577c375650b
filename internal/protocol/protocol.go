// Package protocol implements Algorithm 1 of the paper — the generic
// distributed broadcast protocol — as a configurable engine over the four
// implementation axes (timing, selection, space, priority), together with
// the nine published special cases the paper analyzes (Wu-Li, Dai-Wu Rule-k,
// enhanced Span, MPR, SBA, LENWB, DP, PDP, TDP), the new hybrid algorithms
// (MaxDeg, MinPri), and a blind-flooding baseline.
//
// Space (k-hop views) and priority (ID / Degree / NCR) are configured on the
// simulator (sim.Config); timing and selection are properties of the
// protocol values constructed here.
package protocol

import (
	"adhocbcast/internal/core"
	"adhocbcast/internal/sim"
)

// Timing is the timing axis of Section 4.1: when a node's forward status is
// determined.
type Timing int

// Timing policies.
const (
	// TimingStatic decides every status proactively from topology alone.
	TimingStatic Timing = iota + 1
	// TimingFirstReceipt decides immediately after the first packet copy.
	TimingFirstReceipt
	// TimingBackoffRandom decides after a uniform random backoff (FRB).
	TimingBackoffRandom
	// TimingBackoffDegree decides after a backoff inversely proportional to
	// the node degree (FRBD).
	TimingBackoffDegree
)

// String returns the abbreviation used in the paper's figures.
func (t Timing) String() string {
	switch t {
	case TimingStatic:
		return "Static"
	case TimingFirstReceipt:
		return "FR"
	case TimingBackoffRandom:
		return "FRB"
	case TimingBackoffDegree:
		return "FRBD"
	default:
		return "unknown"
	}
}

// Selection is the selection axis of Section 4.2: who determines a node's
// status.
type Selection int

// Selection policies.
const (
	// SelfPruning lets each node decide its own status.
	SelfPruning Selection = iota + 1
	// NeighborDesignating lets neighbors decide: a node forwards iff
	// designated.
	NeighborDesignating
	// Hybrid combines both: self-pruning plus designation of one neighbor.
	Hybrid
)

// String returns a short selection-policy name.
func (s Selection) String() string {
	switch s {
	case SelfPruning:
		return "self-pruning"
	case NeighborDesignating:
		return "neighbor-designating"
	case Hybrid:
		return "hybrid"
	default:
		return "unknown"
	}
}

// CondFunc evaluates a coverage condition for the node owning st on the
// scratch evaluator ev; true means the node is covered and may take
// non-forward status. It must be pure: no runtime calls, no randomness, no
// reads of mutable state outside st. That lets the simulator precompute
// pending-timer verdicts on worker goroutines, each with an evaluator of its
// own (sim.TimerPrecomputer); correctness never depends on it.
type CondFunc func(st *sim.NodeState, ev *core.Evaluator) bool

// DesignateFunc selects the designated forward set a forwarding node
// attaches to its transmission.
type DesignateFunc func(rt sim.Runtime, st *sim.NodeState) []int

// ExtraFunc builds a protocol-specific packet payload for a forwarding node
// (e.g. TDP piggybacks the sender's 2-hop neighborhood).
type ExtraFunc func(rt sim.Runtime, st *sim.NodeState) []int

// Info describes a protocol for reporting (Table 1 of the paper).
type Info struct {
	Name      string
	Timing    Timing
	Selection Selection
}

// Describer is implemented by protocols that can report their Table 1
// classification.
type Describer interface {
	Describe() Info
}

package protocol

import (
	"adhocbcast/internal/core"
	"adhocbcast/internal/sim"
)

// Options configures one instance of the generic protocol engine.
type Options struct {
	// Name is the display name.
	Name string
	// Timing selects the decision timing policy.
	Timing Timing
	// Selection classifies the protocol for reporting.
	Selection Selection
	// Covered is the coverage condition; nil means never covered (pure
	// flooding behavior for self-pruning protocols).
	Covered CondFunc
	// SelfPrune enables self decisions. When false the node forwards only
	// if designated.
	SelfPrune bool
	// Designate selects designated forward neighbors at forwarding time.
	Designate DesignateFunc
	// StrictDesignation forces every designated node to forward regardless
	// of its own coverage condition (the strict rule used in Figure 11).
	StrictDesignation bool
	// Extra builds an optional packet payload at forwarding time.
	Extra ExtraFunc

	// settle names Covered when it is CoveredGeneric (settleGeneric) or
	// CoveredStrong (settleStrong), whose pristine verdicts settle later
	// ones; 0 for any other condition.
	settle int
}

// engine implements Algorithm 1 parameterized by Options.
type engine struct {
	opts    Options
	status  []bool       // static forward status (TimingStatic only)
	settled *sim.Settled // the run's settled verdicts (sim.Settler), or nil
}

var (
	_ sim.Protocol         = (*engine)(nil)
	_ Describer            = (*engine)(nil)
	_ sim.TimerPrecomputer = (*engine)(nil)
	_ sim.NonDesignating   = (*engine)(nil)
	_ sim.Settler          = (*engine)(nil)
)

// New builds a protocol from explicit engine options. Most callers should
// prefer the named constructors (Generic, DP, SBA, ...).
func New(opts Options) sim.Protocol {
	return &engine{opts: opts}
}

func (e *engine) Name() string { return e.opts.Name }

func (e *engine) Describe() Info {
	return Info{
		Name:      e.opts.Name,
		Timing:    e.opts.Timing,
		Selection: e.opts.Selection,
	}
}

func (e *engine) Init(rt sim.Runtime) {
	if e.opts.Timing != TimingStatic {
		return
	}
	// Static protocols decide every status proactively on the pristine
	// views (topology only, no broadcast state). Only the runtime's local
	// nodes are decided here: all of them in the simulator, just the owning
	// node on a live per-node runtime.
	e.status = make([]bool, rt.N())
	rt.ForEachLocalNode(func(v int) {
		if e.settled != nil {
			// The view build has settled every pristine view already.
			e.status[v] = rt.ConservativeHold(v) || !e.settled.Pristine(rt.State(v), rt.Evaluator())
			return
		}
		e.status[v] = !e.covered(rt, rt.State(v))
	})
}

func (e *engine) Start(rt sim.Runtime, source int) {
	// The source node always forwards the packet.
	e.forward(rt, source)
}

func (e *engine) OnReceive(rt sim.Runtime, v int, r Receipt) {
	st := rt.State(v)
	if st.Sent {
		return
	}
	first := st.Receipts == 1

	if e.opts.Timing == TimingStatic {
		// A view gone stale since Init holds its forwarding (BeaconedViews).
		if first && (e.status[v] || rt.ConservativeHold(v)) {
			e.forward(rt, v)
		} else if first {
			rt.MarkNonForward(v)
		}
		return
	}

	// The strict rule: a designated node forwards no matter what, even if
	// it had already taken non-forward status but has not yet transmitted.
	if e.opts.StrictDesignation && st.Designated() {
		e.forward(rt, v)
		return
	}

	if !e.opts.SelfPrune {
		// Pure neighbor-designating without the strict rule: a designated
		// node may still decline if its coverage condition holds.
		if st.Designated() {
			if e.covered(rt, st) {
				rt.MarkNonForward(v)
				return
			}
			e.forward(rt, v)
		}
		return
	}

	if first {
		rt.SetTimer(v, e.delay(rt, v))
		return
	}
	// Relaxed designation with self-pruning: a designation can arrive after
	// the node already took non-forward status at its un-designated
	// priority. Neighbors now rely on it at the raised 1.5 priority, so it
	// must re-evaluate there and forward unless still covered.
	if e.opts.Designate != nil && st.NonForward && st.Designated() {
		if !e.covered(rt, st) {
			e.forward(rt, v)
		}
	}
}

func (e *engine) OnTimer(rt sim.Runtime, v int) {
	st := rt.State(v)
	if st.Sent || st.NonForward {
		return
	}
	if e.opts.StrictDesignation && st.Designated() {
		e.forward(rt, v)
		return
	}
	if e.covered(rt, st) {
		rt.MarkNonForward(v)
		return
	}
	e.forward(rt, v)
}

// covered evaluates the engine's coverage condition for the node owning st,
// folding in the simulator's conservative fallback: a node that knows its
// view may be incomplete never trusts a "covered" conclusion drawn from that
// view, so it reports uncovered and keeps forward status (the paper's
// default-forward safety property under imperfect knowledge). A nil Covered
// option reports uncovered, preserving flooding behavior.
func (e *engine) covered(rt sim.Runtime, st *sim.NodeState) bool {
	if e.opts.Covered == nil {
		return false
	}
	if c, ok := st.TakePreparedCovered(); ok {
		// The simulator precomputed this node's pending-timer verdict
		// (PrecomputeTimer below) — including the conservative-fallback
		// override — on a worker goroutine.
		return c
	}
	if rt.ConservativeHold(st.ID) {
		return false
	}
	return e.verdict(st, rt.Evaluator())
}

// verdict evaluates the coverage condition for the node owning st on ev, or
// takes its settled verdict when the run has one that says covered.
func (e *engine) verdict(st *sim.NodeState, ev *core.Evaluator) bool {
	if e.settled != nil {
		return e.settled.Covered(st, ev)
	}
	return e.opts.Covered(st, ev)
}

// PrecomputeTimer implements sim.TimerPrecomputer: it returns the verdict
// covered() will reach when node v's timer dispatches at the current instant,
// provided the engine has a coverage condition and no engine rule preempts
// its evaluation (already sent, already non-forward, strict designation).
// The simulator guarantees the timer is v's earliest event of the instant,
// so the state read here is the state the sequential dispatch would see.
func (e *engine) PrecomputeTimer(rt sim.Runtime, v int, ev *core.Evaluator) (bool, bool) {
	if e.opts.Covered == nil {
		return false, false
	}
	st := rt.State(v)
	if st.Sent || st.NonForward {
		return false, false
	}
	if e.opts.StrictDesignation && st.Designated() {
		return false, false
	}
	if rt.ConservativeHold(v) {
		return false, true
	}
	return e.verdict(st, ev), true
}

// SettleCondition implements sim.Settler: settled verdicts hold for an engine
// whose condition is generic or strong and that never designates, so no
// node's own status rises above un-visited before it transmits. With a
// designation, the designated node's own priority rises to 1.5, and a
// pristine "covered" may no longer hold (internal/core's
// TestOwnDesignationBreaksSettling). A non-designating engine with no
// condition (Flooding) covers no node and reads no view, which a nil
// condition says.
func (e *engine) SettleCondition() (int, func(*sim.NodeState, *core.Evaluator) bool, bool) {
	switch {
	case !e.NonDesignating():
		return 0, nil, false
	case e.opts.Covered == nil:
		return settleNever, nil, false
	case e.opts.settle == 0:
		return 0, nil, false
	}
	return e.opts.settle, e.opts.Covered, e.opts.Timing == TimingStatic
}

// UseSettled implements sim.Settler.
func (e *engine) UseSettled(s *sim.Settled) { e.settled = s }

// NonDesignating implements sim.NonDesignating: with no designation mechanism
// configured, packets never carry designated sets and the engine's receive
// path for a node with only receive events pending reads nothing a view merge
// changes (the self-pruning path just sets a timer on first receipt; the
// static path consults only the precomputed status). Coverage conditions read
// view marks, but they run from timers, never from OnReceive, on these
// configurations.
func (e *engine) NonDesignating() bool {
	return e.opts.Designate == nil && e.opts.Extra == nil && !e.opts.StrictDesignation &&
		(e.opts.SelfPrune || e.opts.Timing == TimingStatic)
}

func (e *engine) delay(rt sim.Runtime, v int) float64 {
	switch e.opts.Timing {
	case TimingBackoffRandom:
		return rt.RandomBackoff()
	case TimingBackoffDegree:
		return rt.DegreeBackoff(v)
	default:
		return 0
	}
}

func (e *engine) forward(rt sim.Runtime, v int) {
	st := rt.State(v)
	if st.Sent {
		return
	}
	var designated, extra []int
	if e.opts.Designate != nil {
		designated = e.opts.Designate(rt, st)
	}
	if e.opts.Extra != nil {
		extra = e.opts.Extra(rt, st)
	}
	rt.Transmit(v, designated, extra)
}

// Receipt aliases the simulator receipt type for protocol callbacks.
type Receipt = sim.Receipt

// Package sim is the discrete-event broadcast simulator: every transmission
// is heard by all neighbors after a unit delay, per-node local views carry
// snooped and piggybacked broadcast state, timers implement the backoff
// policies, and event ordering is fully deterministic. The MAC is
// collision-free by default (the paper's evaluation setup); optional loss,
// collision, and jitter models support the reliability experiments, an
// optional stale view topology supports the mobility experiments, an optional
// fault plan injects node crashes, churn, and link outages, and an optional
// NACK-based recovery layer retransmits dropped copies. Protocols plug in
// through the Protocol interface; the simulator owns all common bookkeeping
// (view construction, visited/designated marking, delivery accounting).
package sim

import (
	"fmt"
	"math"

	"adhocbcast/internal/fault"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/hello"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/view"
)

// ViewProvider supplies node v's private view topology: the graph node v
// believes the network to be, on the global vertex numbering. Providers are
// called once per node at run setup and must be pure (same v, same graph) for
// runs to be reproducible; hello.Views.Graph satisfies the signature.
type ViewProvider func(v int) *graph.Graph

// Config holds the physical and view-formation parameters of a run.
type Config struct {
	// Observer, when non-nil, receives transmit/deliver/non-forward events
	// as they happen (see Recorder for a ready-made implementation).
	Observer Observer
	// Metrics, when non-nil, is populated with the run's counters, the
	// first-delivery latency histogram, and the forward-set size
	// distribution (see obsv.RunRecord). The record is Reset at the start
	// of the run so one allocation can serve a whole sweep. Nil (the
	// default) skips all metric work and keeps runs byte-identical to the
	// uninstrumented simulator.
	Metrics *obsv.RunRecord
	// ViewTopology, when non-nil, is the (possibly stale) topology the
	// local views are built from, while transmissions propagate over the
	// actual graph passed to Run. It models views assembled from hello
	// messages exchanged before the nodes moved. Nil means views match the
	// actual topology (the paper's static evaluation assumption).
	ViewTopology *graph.Graph
	// NodeViews, when non-nil, gives every node its own private (divergent,
	// possibly wrong) view topology, modeling views assembled from a *lossy*
	// hello exchange: local views and priority metrics are built per node
	// from its own graph. Mutually exclusive with ViewTopology, which models
	// one shared stale snapshot. Nil means no per-node views.
	NodeViews ViewProvider
	// ViewIncomplete, when non-nil, reports whether node v knows its own
	// view may be missing links (e.g. it counted fewer hello receipts than
	// exchange rounds; see hello.Views.Incomplete). It is consulted by the
	// conservative fallback and the metrics layer only — a nil func means no
	// node can prove anything about its view.
	ViewIncomplete func(v int) bool
	// ConservativeFallback enables the robustness mechanism mirroring the
	// paper's default-forward safety property: a node whose view is provably
	// incomplete (ViewIncomplete) refuses non-forward status and forwards
	// when its turn comes, trading redundancy for the delivery that wrong
	// pruning decisions would lose. Requires ViewIncomplete or DynamicHello.
	// Default off, which keeps every paper figure byte-identical.
	ConservativeFallback bool
	// DynamicHello, when non-nil, models periodic hello maintenance after
	// the initial exchange: every node beacons each hello.Dynamic.Interval,
	// beacons are lost per receiver by the pure (Seed, recv, from, round)
	// hash of hello.Dynamic.Received, and a node that has not heard a
	// view-neighbor for longer than the expiry considers its view provably
	// stale. With ConservativeFallback set, stale-view nodes hold their
	// forwarding (refuse non-forward status) until the view is fresh again —
	// the same view-repair semantics the live runtime implements with real
	// timers, so seed-matched sim and live runs agree on every stale hold.
	// Nil (the default) keeps every paper figure byte-identical.
	DynamicHello *hello.Dynamic
	// Hops is the k of the k-hop local views; 0 or negative selects the
	// global view.
	Hops int
	// Metric selects the priority metric (default view.MetricID).
	Metric view.Metric
	// PiggybackDepth is h, the number of most recently visited nodes (with
	// their designated sets) carried in the broadcast packet. Default 2.
	// Negative disables piggybacking entirely (only MAC-level snooping of
	// the sender remains).
	PiggybackDepth int
	// BackoffWindow is the maximum backoff delay, in transmission slots,
	// used by backoff-based timing policies. Default 8: large enough that a
	// backing-off node usually hears some same-wave neighbors forward
	// before deciding, which is the entire point of FRB/FRBD.
	BackoffWindow float64
	// TransmitDelay is the time for a transmission to reach all neighbors.
	// Default 1.
	TransmitDelay float64
	// Workers is the number of goroutines the event loop may use to
	// precompute same-instant work (pending-timer coverage verdicts and
	// receive-side view merges) before the sequential dispatch pass. 0 and
	// 1 both mean fully sequential. Results are bit-identical for any
	// worker count. With Workers > 1, ViewIncomplete (if set) must be safe
	// for concurrent calls.
	Workers int
	// Seed drives the run's private RNG streams. Each stochastic model
	// (backoff, jitter, loss, recovery) draws from its own stream derived
	// from Seed, so enabling one model never perturbs the draws of the
	// others. The backoff stream is seeded with Seed itself, keeping runs
	// without jitter or loss bit-identical to the historical single-stream
	// simulator.
	Seed int64

	// The fields below model an unreliable MAC layer for reliability
	// experiments (the paper's Section 1 discussion and its companion
	// work). All default to off, which reproduces the paper's collision-
	// free evaluation setup.

	// LossRate is an independent per-receipt loss probability in [0, 1).
	LossRate float64
	// Collisions, when true, drops every copy that arrives at a receiver
	// simultaneously with another copy (a CSMA-less broadcast collision).
	// It is the legacy all-or-nothing channel model, kept as a
	// compatibility mode; CarrierSense is the contention-aware
	// generalization, and the two are mutually exclusive.
	Collisions bool
	// TxJitter adds a uniform random delay in [0, TxJitter) to each
	// transmission, de-synchronizing retransmission waves (the "small
	// forwarding jitter delay" that relieves collisions).
	TxJitter float64

	// The fields below enable the contention-aware MAC of the heavy-traffic
	// experiments (see docs/traffic-model.md): per-node FIFO transmit
	// queues and a carrier-sense + slotted-backoff channel where
	// overlapping in-range transmissions garble each other. All default to
	// off, which keeps every paper figure and golden byte-identical.

	// CarrierSense enables the contention-aware MAC: Transmit hands the
	// packet to the node's FIFO transmit queue, the head transmits only
	// when no in-range transmission started strictly earlier is still on
	// the air (a radio cannot sense a transmission that starts at the same
	// instant, so simultaneous starts collide), a busy channel defers the
	// attempt by a slotted random backoff, and copies whose air time
	// overlaps another in-range transmission are dropped as collided —
	// including hidden-terminal overlaps carrier sensing cannot prevent.
	// Mutually exclusive with Collisions and TxJitter (the contention MAC
	// is slotted; jitter would move arrivals off the slot grid).
	CarrierSense bool
	// TxQueueCap caps each node's transmit queue (only meaningful with
	// CarrierSense). 0 means unbounded; with a positive cap, an enqueue to
	// a full queue drops a packet according to DropOldest and is counted
	// in Result.QueueDrops.
	TxQueueCap int
	// DropOldest selects the overflow policy of a full transmit queue:
	// false (default) drops the arriving packet (tail drop), true evicts
	// the queue head to admit the arrival (head drop, favoring fresh
	// traffic under overload).
	DropOldest bool

	// Faults, when non-nil, is a deterministic fault plan (node crashes,
	// churn, link outages) the run honors: copies arriving at a down node
	// or over a down link are dropped and accounted by cause, timers of
	// down nodes are cancelled, and down nodes never transmit. The plan is
	// read-only and may be shared across runs. Nil reproduces the fault-
	// free behavior exactly.
	Faults *fault.Plan

	// NACKRecovery enables the NACK-based recovery layer: a receiver that
	// detects a garbled copy (loss or collision — it overheard a forward
	// it never got) requests a retransmission from the sender over a
	// reliable control channel; the sender retries unicast with exponential
	// backoff until the copy lands or the per-link retry budget runs out.
	// Default off, which keeps every paper figure bit-identical.
	NACKRecovery bool
	// RetryBudget caps recovery retransmissions per (sender, receiver)
	// link. Default 3 (only meaningful with NACKRecovery).
	RetryBudget int
	// NACKDelay is the time from a detected drop to the request reaching
	// the sender (detection plus control transit). Default 0.5 slots.
	NACKDelay float64
	// RetryBackoff is the base retry delay: retransmission k is sent
	// RetryBackoff * 2^(k-1) after its request arrives. Default 1 slot.
	RetryBackoff float64
}

// validate rejects configurations that would silently misbehave: out-of-range
// loss rates, non-finite or negative delays and windows, and malformed fault
// plans. n is the network size the fault plan must match.
func (c Config) validate(n int) error {
	if c.LossRate < 0 || c.LossRate >= 1 || math.IsNaN(c.LossRate) {
		return fmt.Errorf("sim: LossRate %v outside [0,1)", c.LossRate)
	}
	// Event times are sums and quotients of these: one NaN or infinity
	// would put an event where the calendar queue can never reach it. For
	// the first two, zero or less selects the default (withDefaults).
	for _, f := range []struct {
		name      string
		v         float64
		defaulted bool
	}{
		{"TransmitDelay", c.TransmitDelay, true},
		{"BackoffWindow", c.BackoffWindow, true},
		{"TxJitter", c.TxJitter, false},
		{"NACKDelay", c.NACKDelay, false},
		{"RetryBackoff", c.RetryBackoff, false},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("sim: %s %v is not finite", f.name, f.v)
		}
		if f.v < 0 && !f.defaulted {
			return fmt.Errorf("sim: negative %s %v", f.name, f.v)
		}
	}
	if c.RetryBudget < 0 {
		return fmt.Errorf("sim: negative RetryBudget %d", c.RetryBudget)
	}
	if c.CarrierSense && c.Collisions {
		return fmt.Errorf("sim: CarrierSense and Collisions are mutually exclusive: " +
			"one channel model per run (Collisions is the legacy compatibility mode)")
	}
	if c.CarrierSense && c.TxJitter > 0 {
		return fmt.Errorf("sim: TxJitter is incompatible with CarrierSense " +
			"(the contention MAC is slotted; jitter would move arrivals off the slot grid)")
	}
	if c.TxQueueCap < 0 {
		return fmt.Errorf("sim: negative TxQueueCap %d", c.TxQueueCap)
	}
	if !c.CarrierSense && (c.TxQueueCap != 0 || c.DropOldest) {
		return fmt.Errorf("sim: TxQueueCap/DropOldest require CarrierSense")
	}
	if c.Workers < 0 {
		return fmt.Errorf("sim: negative Workers %d", c.Workers)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(n); err != nil {
			return fmt.Errorf("sim: invalid fault plan: %w", err)
		}
	}
	if c.ViewTopology != nil && c.ViewTopology.N() != n {
		return fmt.Errorf("sim: view topology has %d nodes, network has %d",
			c.ViewTopology.N(), n)
	}
	if c.ViewTopology != nil && c.NodeViews != nil {
		return fmt.Errorf("sim: ViewTopology and NodeViews are mutually exclusive: " +
			"one global stale snapshot or per-node views, not both")
	}
	if c.ConservativeFallback && c.ViewIncomplete == nil && c.DynamicHello == nil {
		return fmt.Errorf("sim: ConservativeFallback requires ViewIncomplete or DynamicHello " +
			"(no node can prove its view incomplete or stale, so the fallback would silently never fire)")
	}
	if c.DynamicHello != nil {
		if err := c.DynamicHello.WithDefaults().Validate(); err != nil {
			return fmt.Errorf("sim: invalid DynamicHello: %w", err)
		}
	}
	return nil
}

// Normalize validates c for an n-node network and returns it with its
// defaults filled. It is the one default and validation table of the
// protocol, timing and recovery fields: the live executor (internal/runtime)
// normalizes its fields of the same names through it.
func (c Config) Normalize(n int) (Config, error) {
	if err := c.validate(n); err != nil {
		return c, err
	}
	return c.withDefaults(), nil
}

func (c Config) withDefaults() Config {
	if c.Metric == 0 {
		c.Metric = view.MetricID
	}
	if c.PiggybackDepth == 0 {
		c.PiggybackDepth = 2
	}
	if c.PiggybackDepth < 0 {
		c.PiggybackDepth = 0
	}
	if c.BackoffWindow <= 0 {
		c.BackoffWindow = 8
	}
	if c.TransmitDelay <= 0 {
		c.TransmitDelay = 1
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 3
	}
	if c.NACKDelay == 0 {
		c.NACKDelay = 0.5
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 1
	}
	if c.DynamicHello != nil {
		d := c.DynamicHello.WithDefaults()
		c.DynamicHello = &d
	}
	return c
}

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

// Views says what the nodes' k-hop views are built from when it is not the
// actual graph passed to Run: the paper's View(t) (Section 2, assembled by
// the Section 4.3 hello exchange) drifts from it in three modeled ways, one
// sealed variant each. Nil is the paper's setting.
type Views interface {
	validate(n int) error                         // rejects a variant unfit for n nodes
	graphOf(g *graph.Graph, v int) *graph.Graph   // node v's view topology (g: the actual one)
	hold(g *graph.Graph, v int, now float64) bool // see Network.ConservativeHold
	record(g *graph.Graph, m *obsv.RunRecord)     // adds the variant's run-record counters
}

// SharedViews builds every view from one shared, possibly stale snapshot
// while transmissions propagate over the actual graph: views assembled from
// hellos exchanged before the nodes moved.
type SharedViews struct {
	Topology *graph.Graph // the snapshot, on the network's vertex numbering
}

// NodeViews is the view source of PerNodeViews; *hello.Views implements it.
// Both methods must be pure and safe for concurrent calls: a single run's
// event loop calls Incomplete from several goroutines whenever it shards a
// batch's timer verdicts (see Config.Workers).
type NodeViews interface {
	Graph(v int) *graph.Graph // node v's private view topology
	Incomplete(v int) bool    // whether v can prove its view may miss links
}

// PerNodeViews builds each node's view and priorities from its own, possibly
// wrong, graph (a lossy hello exchange's outcome). Hold is the conservative
// fallback mirroring the paper's default-forward safety property: a provably
// incomplete node refuses non-forward status.
type PerNodeViews struct {
	Views NodeViews
	Hold  bool
}

// BeaconedViews models periodic hello maintenance over the actual graph:
// beacons are lost by the pure hash of hello.Dynamic.Received, and a node
// that has not heard a view-neighbor within the expiry holds its forwarding
// until its view is fresh, as the live runtime does with real timers. Zero
// Hello fields take hello.Dynamic's defaults.
type BeaconedViews struct {
	Hello hello.Dynamic
}

func (s SharedViews) validate(n int) error {
	if s.Topology == nil || s.Topology.N() != n {
		return fmt.Errorf("sim: view topology is nil or does not have the network's %d nodes", n)
	}
	return nil
}

func (s SharedViews) graphOf(*graph.Graph, int) *graph.Graph { return s.Topology }
func (SharedViews) hold(*graph.Graph, int, float64) bool     { return false }
func (SharedViews) record(*graph.Graph, *obsv.RunRecord)     {}

func (p PerNodeViews) validate(n int) error {
	if p.Views == nil {
		return fmt.Errorf("sim: PerNodeViews has no Views")
	}
	for v := 0; v < n; v++ {
		if gv := p.Views.Graph(v); gv == nil || gv.N() != n {
			return fmt.Errorf("sim: node %d view is nil or does not have the network's %d nodes", v, n)
		}
	}
	return nil
}

func (p PerNodeViews) graphOf(_ *graph.Graph, v int) *graph.Graph { return p.Views.Graph(v) }
func (p PerNodeViews) hold(_ *graph.Graph, v int, _ float64) bool {
	return p.Hold && p.Views.Incomplete(v)
}

func (p PerNodeViews) record(_ *graph.Graph, m *obsv.RunRecord) {
	for v := 0; v < m.N; v++ {
		if p.Views.Incomplete(v) {
			m.ViewIncompleteNodes++
		}
	}
}

func (b BeaconedViews) validate(int) error                       { return b.Hello.WithDefaults().Validate() }
func (BeaconedViews) graphOf(g *graph.Graph, _ int) *graph.Graph { return g }
func (b BeaconedViews) hold(g *graph.Graph, v int, now float64) bool {
	return b.Hello.ViewStale(g, v, now)
}
func (b BeaconedViews) record(g *graph.Graph, m *obsv.RunRecord) {
	m.StaleViewHolds = b.Hello.StaleViewHolds(g, m.Finish)
}

// Config holds the physical and view-formation parameters of a run.
type Config struct {
	// Observer, when non-nil, records every event of the run as it happens
	// (see Recorder). Nil (the default) builds no event at all.
	Observer *Recorder
	// Metrics, when non-nil, is populated with the run's counters, the
	// first-delivery latency histogram, and the forward-set size
	// distribution (see obsv.RunRecord). The record is Reset at the start
	// of the run so one allocation can serve a whole sweep. Nil (the
	// default) skips all metric work and keeps runs byte-identical to the
	// uninstrumented simulator.
	Metrics *obsv.RunRecord
	// Views, when non-nil, builds the nodes' views from something other
	// than the actual graph passed to Run (see its variants).
	Views Views
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
	// Workers is the number of goroutines the event loop of a
	// single-broadcast run (Run, RunWith) may use to precompute same-instant
	// work (pending-timer coverage verdicts and receive-side view merges)
	// before the sequential dispatch pass; traffic runs ignore it. 0 (the
	// default) means runtime.GOMAXPROCS(0), 1 fully sequential, k > 1 k
	// goroutines. Only a batch of at least 128 timers shards (a wave front
	// of a network in the thousands of nodes; no run at the paper's n <= 100
	// comes near it), so small runs stay sequential and start no goroutine
	// whatever the count. A sharded batch starts one helper goroutine per 64
	// of its timers, at most k-1, and each helper the Arena has ever started
	// keeps an evaluator of 8 bytes per node (8 MB at n = 1M), so a run's
	// extra memory is bounded by its widest batch (at most 25 helpers at
	// n = 200k, d = 18) as well as by k. Results are bit-identical for any
	// worker count.
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
	// a full queue drops the arriving packet (tail drop), counted in
	// Result.QueueDrops.
	TxQueueCap int

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
	if !c.CarrierSense && c.TxQueueCap != 0 {
		return fmt.Errorf("sim: TxQueueCap requires CarrierSense")
	}
	if c.Workers < 0 {
		return fmt.Errorf("sim: negative Workers %d", c.Workers)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(n); err != nil {
			return fmt.Errorf("sim: invalid fault plan: %w", err)
		}
	}
	if c.Views != nil {
		return c.Views.validate(n)
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
	if b, ok := c.Views.(BeaconedViews); ok {
		b.Hello = b.Hello.WithDefaults()
		c.Views = b
	}
	return c
}

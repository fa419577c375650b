// Package obsv is the run-record observability layer: per-run metric
// records (counters, a fixed-bucket latency histogram, a forward-set size
// distribution), a versioned JSONL export of records and traces with
// tamper-evident hash-chain sealing (ChainLink, Writer.Seal, VerifyChain),
// atomic file publication (AtomicFile), and lock-free live counters for
// debug endpoints. The package depends only on
// the standard library and allocates nothing on its observation hot paths,
// so the simulator can feed it from inside the event loop; everything is
// opt-in — a nil *RunRecord in sim.Config keeps the simulator byte-identical
// to the uninstrumented build.
package obsv

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram. Bucket i counts observations x with
// Bounds[i-1] < x <= Bounds[i]; the final bucket (Counts[len(Bounds)]) is the
// overflow bucket for x > Bounds[len(Bounds)-1]. Observe never allocates.
type Histogram struct {
	// Bounds holds the inclusive bucket upper bounds, ascending.
	Bounds []float64 `json:"bounds"`
	// Counts has len(Bounds)+1 entries; the last is the overflow bucket.
	Counts []uint64 `json:"counts"`
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum float64 `json:"sum"`
	// Min and Max track the observed range (0 when Count == 0).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// NewHistogram returns a histogram over the given ascending bucket bounds.
func NewHistogram(bounds []float64) Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obsv: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return Histogram{
		Bounds: append([]float64(nil), bounds...),
		Counts: make([]uint64, len(bounds)+1),
	}
}

// Observe folds one value into the histogram without allocating.
func (h *Histogram) Observe(x float64) {
	i := sort.SearchFloat64s(h.Bounds, x)
	h.Counts[i]++
	if h.Count == 0 || x < h.Min {
		h.Min = x
	}
	if h.Count == 0 || x > h.Max {
		h.Max = x
	}
	h.Count++
	h.Sum += x
}

// Mean returns the mean observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Reset zeroes the histogram counts, keeping the bucket layout.
func (h *Histogram) Reset() {
	for i := range h.Counts {
		h.Counts[i] = 0
	}
	h.Count = 0
	h.Sum = 0
	h.Min = 0
	h.Max = 0
}

// Default bucket layouts, in transmission slots (latency) and set sizes
// (forward sets). Both are part of the exported schema: changing them is a
// schema version bump.
var (
	defaultLatencyBounds    = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
	defaultForwardSetBounds = []float64{0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32}
)

// RunRecord captures the metrics of one simulated broadcast: the copy and
// drop accounting, recovery activity, a first-delivery latency histogram,
// and the distribution of designated forward-set sizes. The simulator
// populates one behind sim.Config.Metrics; a record can be Reset and reused
// across runs so steady-state instrumented sweeps do not allocate per run.
type RunRecord struct {
	// N is the network size and Delivered the nodes reached.
	N         int `json:"n"`
	Delivered int `json:"delivered"`
	// Forward is the number of transmitting nodes (including the source).
	Forward int `json:"forward"`
	// Copies counts transmitted packet copies; every copy is delivered or
	// dropped: Receipts + Lost + Collided + DroppedNodeDown +
	// DroppedLinkDown == Copies (see Conserved).
	Copies          int `json:"copies"`
	Receipts        int `json:"receipts"`
	Lost            int `json:"lost"`
	Collided        int `json:"collided"`
	DroppedNodeDown int `json:"dropped_node_down"`
	DroppedLinkDown int `json:"dropped_link_down"`
	// TimersCancelled, NACKs, and Retransmits count fault and recovery
	// activity (zero without a fault plan / recovery layer).
	TimersCancelled int `json:"timers_cancelled"`
	NACKs           int `json:"nacks"`
	Retransmits     int `json:"retransmits"`
	// Sessions is the number of broadcast sessions the run injected; absent
	// (0 encodes as omitted) for single-broadcast runs, whose records stay
	// byte-identical. In multi-session runs Reachable counts Sessions*N
	// deliverable (session, node) pairs and Delivered/DeliveredReachable
	// count pairs reached. Additive: the schema version stays obsv/v1.
	Sessions int `json:"sessions,omitempty"`
	// QueueDrops and MACDeferrals count contention-MAC activity: packets
	// dropped from transmit queues and carrier-sense deferrals. Queued
	// packets never went on the air, so queue drops are outside the Conserved
	// identity. Absent (zero) without sim.Config.CarrierSense. Additive.
	QueueDrops   int `json:"queue_drops,omitempty"`
	MACDeferrals int `json:"mac_deferrals,omitempty"`
	// Reachable and DeliveredReachable score delivery against the nodes
	// still connected to the source under the fault plan.
	Reachable          int `json:"reachable"`
	DeliveredReachable int `json:"delivered_reachable"`
	// ViewIncompleteNodes counts nodes that could prove their own local
	// view incomplete before the broadcast started (missed hello receipts;
	// see hello.Views.Incomplete). Zero unless the run was configured with
	// per-node views (sim.PerNodeViews).
	ViewIncompleteNodes int `json:"view_incomplete_nodes,omitempty"`
	// ViewMissingLinks and ViewPhantomLinks record the divergence of the
	// run's per-node views against the true topology, summed over nodes
	// (hello.Divergence aggregates). The simulator cannot compute these —
	// they need the ground truth — so the experiment driving the run fills
	// them in between sim.Run and trace export. Zero without per-node views.
	ViewMissingLinks int `json:"view_missing_links,omitempty"`
	ViewPhantomLinks int `json:"view_phantom_links,omitempty"`
	// Restarts, JournalReplays, and StaleViewHolds count crash-recovery
	// activity: process (or node) restarts observed during the run, journal
	// replays performed on restart, and nodes whose dynamic-hello view went
	// stale at some point during the run (so the conservative fallback held
	// their forwarding). Restarted nodes re-enter the run rather than
	// transmitting new copies by themselves, so — like QueueDrops — these sit
	// outside the Conserved identity. Absent (zero) without journaling or
	// dynamic hello maintenance. Additive: the schema version stays obsv/v1.
	Restarts       int `json:"restarts,omitempty"`
	JournalReplays int `json:"journal_replays,omitempty"`
	StaleViewHolds int `json:"stale_view_holds,omitempty"`
	// Finish is the time of the run's last event.
	Finish float64 `json:"finish"`
	// Latency is the first-delivery time histogram across reached nodes;
	// the source is observed at t=0 (it holds the packet from the start).
	Latency Histogram `json:"latency"`
	// ForwardSet is the distribution of designated forward-set sizes, one
	// observation per transmission.
	ForwardSet Histogram `json:"forward_set"`
}

// NewRunRecord returns a RunRecord with the default histogram layouts.
func NewRunRecord() *RunRecord {
	return &RunRecord{
		Latency:    NewHistogram(defaultLatencyBounds),
		ForwardSet: NewHistogram(defaultForwardSetBounds),
	}
}

// Reset clears the record for reuse, keeping histogram layouts. A zero-value
// RunRecord gets the default layouts, so &RunRecord{} works wherever
// NewRunRecord() does once Reset has run.
func (r *RunRecord) Reset() {
	lat, fwd := r.Latency, r.ForwardSet
	lat.Reset()
	fwd.Reset()
	*r = RunRecord{Latency: lat, ForwardSet: fwd}
	if r.Latency.Counts == nil {
		r.Latency = NewHistogram(defaultLatencyBounds)
	}
	if r.ForwardSet.Counts == nil {
		r.ForwardSet = NewHistogram(defaultForwardSetBounds)
	}
}

// FaultDrops returns the copies dropped by the fault plan, by any cause.
func (r *RunRecord) FaultDrops() int { return r.DroppedNodeDown + r.DroppedLinkDown }

// Conserved reports whether the drop accounting closes: every transmitted
// copy is either delivered or dropped by exactly one cause.
func (r *RunRecord) Conserved() bool {
	return r.Receipts+r.Lost+r.Collided+r.FaultDrops() == r.Copies
}

// LiveCounters aggregates progress across concurrently measured data points
// for a live debug endpoint. It implements expvar.Var via String without
// importing expvar, and all updates are lock-free.
type LiveCounters struct {
	replicates atomic.Int64
	converged  atomic.Int64
	exhausted  atomic.Int64
}

// AddReplicate records one completed replication.
func (c *LiveCounters) AddReplicate() { c.replicates.Add(1) }

// PointConverged records a data point whose CI met its tolerance.
func (c *LiveCounters) PointConverged() { c.converged.Add(1) }

// PointExhausted records a data point that hit its replication cap.
func (c *LiveCounters) PointExhausted() { c.exhausted.Add(1) }

// String renders the counters as a JSON object (the expvar.Var contract).
func (c *LiveCounters) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"replicates": %d, "points_converged": %d, "points_exhausted": %d}`,
		c.replicates.Load(), c.converged.Load(), c.exhausted.Load())
	return b.String()
}

package sim

import (
	"fmt"

	"adhocbcast/internal/core"
	"adhocbcast/internal/obsv"
)

// Runtime is the narrow executor surface a broadcast protocol drives: deliver
// and transmit packets, set decision timers, finalize statuses, and read the
// per-node state the common bookkeeping maintains. Two executors implement it:
//
//   - the discrete-event simulator (this package), where one Runtime value
//     per broadcast session hosts every node — a Run is one session, a
//     RunTrafficWith run many over one channel — and event ordering is fully
//     deterministic; and
//   - the live executor (internal/runtime), where each node is a
//     message-passing node with a per-node Runtime of its own (runtime.Core):
//     n of them share one virtual-time queue and an in-memory wire in a
//     runtime.Cluster, and a cmd/bcastnode process runs one on the wall
//     clock.
//
// A protocol written against Runtime therefore runs unchanged in both worlds.
// The executors differ in one place: under dynamic hello maintenance a
// Cluster node takes the simulator's pure-hash staleness verdict, while a
// bcastnode process beacons and judges staleness from the beacons it hears
// (a beaconing Cluster node would keep its queue busy and never quiesce).
// The contract mirrors the paper's locality property: every method a protocol
// calls while handling node v touches only v's own state (State(v), timers for
// v, v's transmission); a Runtime hosting a single node supports exactly that
// usage. Only Init-time iteration differs between executors, which is what
// ForEachLocalNode abstracts.
type Runtime interface {
	// N returns the network size (the global vertex-id space).
	N() int
	// ForEachLocalNode calls yield for every node this runtime hosts: all
	// nodes in the simulator, only the local node in a live per-node
	// runtime. Protocols with proactive (Init-time) per-node work iterate
	// with it instead of assuming every node is local.
	ForEachLocalNode(yield func(v int))
	// State returns the bookkeeping state of node v. Executors hosting a
	// single node serve only their own id.
	State(v int) *NodeState
	// SetTimer schedules an OnTimer callback for node v after delay (>= 0)
	// in simulation-time units.
	SetTimer(v int, delay float64)
	// MarkNonForward finalizes a non-forward decision for v.
	MarkNonForward(v int)
	// Transmit makes node v forward the broadcast packet now, carrying the
	// given designated forward set and protocol-specific extra payload
	// (either may be nil). A node transmits at most once.
	Transmit(v int, designated, extra []int)
	// RandomBackoff draws a uniform backoff delay from [0, BackoffWindow).
	RandomBackoff() float64
	// DegreeBackoff returns the FRBD backoff of node v, inversely
	// proportional to v's (view) degree.
	DegreeBackoff(v int) float64
	// ConservativeHold reports whether node v must refuse non-forward
	// status because its view is provably incomplete or stale (the
	// conservative fallback of the imperfect-views pipeline).
	ConservativeHold(v int) bool
	// Evaluator returns the runtime's scratch coverage-condition evaluator.
	// Protocol callbacks on one runtime value run sequentially, so the
	// shared instance is safe and allocation-free.
	Evaluator() *core.Evaluator
	// Now returns the current time in simulation units: the event or
	// virtual-queue time, or wall time over the configured time scale on a
	// bcastnode process.
	Now() float64
}

// session is the simulator's Runtime: one broadcast of a run, with its own
// protocol instance and node states over the run's shared topology, channel,
// fault plan and RNG streams. A single run (Run) is session 0, over the
// arena's node states and views; each session of a traffic run
// (RunTrafficWith) gets fresh states over an overlay of the view set. State reads and status
// writes route to the session's nodes; transmissions and timers go to the
// shared network (and, under CarrierSense, its MAC queues) tagged with the
// session id.
type session struct {
	net    *Network
	id     int32
	source int
	start  float64 // injection time: the origin of the session's latencies
	proto  Protocol
	nodes  []NodeState

	// Whether the protocol retires decided nodes' views (RetiresViews),
	// which handleReceive and Transmit read to skip the marks no one reads,
	// and the settled verdicts handed to it (nil when it gets none).
	retire  bool
	settled *Settled
}

var _ Runtime = (*session)(nil)

func (s *session) N() int { return s.net.G.N() }

// ForEachLocalNode implements Runtime: the simulator hosts every node.
func (s *session) ForEachLocalNode(yield func(v int)) {
	for v := 0; v < s.net.G.N(); v++ {
		yield(v)
	}
}

// State returns the session's state of node v. The pointer stays valid for
// the whole run (the states are one array, never reallocated).
func (s *session) State(v int) *NodeState { return &s.nodes[v] }

func (s *session) SetTimer(v int, delay float64) {
	net := s.net
	net.pushEvent(event{at: net.now + max(delay, 0), kind: eventTimer, node: int32(v), session: s.id})
}

func (s *session) MarkNonForward(v int) {
	if debugChecks && s.net.ConservativeHold(v) {
		panic(fmt.Sprintf("sim: conservative-fallback node %d took non-forward status", v))
	}
	st := &s.nodes[v]
	if !st.NonForward {
		s.net.trace(obsv.TraceNonForward, s.id, v, -1, "", nil)
	}
	st.NonForward = true
}

func (s *session) RandomBackoff() float64 { return s.net.RandomBackoff() }

func (s *session) DegreeBackoff(v int) float64 { return s.net.DegreeBackoff(v) }

func (s *session) ConservativeHold(v int) bool { return s.net.ConservativeHold(v) }

func (s *session) Evaluator() *core.Evaluator { return s.net.Evaluator() }

func (s *session) Now() float64 { return s.net.now }

// RecordReceipt records the delivery of one packet copy in the node's
// bookkeeping state: first-copy fields, last-packet tracking, and the receipt
// count — references and a counter, nothing that grows with the copies heard.
// It reports whether this was the node's first copy. Both executors call it
// on every non-dropped delivery, before the protocol's OnReceive runs.
func (st *NodeState) RecordReceipt(r Receipt) (first bool) {
	first = !st.Received
	st.Received = true
	if first {
		st.FirstFrom = r.From
		st.FirstPacket = r.Packet
	}
	st.LastPacket = r.Packet
	st.Receipts++
	return first
}

// TakePreparedCovered returns and consumes the coverage verdict the
// simulator's parallel precompute produced for this node's pending timer at
// the current instant (TimerPrecomputer). Only the sharded batches of a
// single run precompute (see minShard); otherwise, and always on a live
// node, it reports ok=false.
func (st *NodeState) TakePreparedCovered() (covered, ok bool) {
	p := st.prepared
	st.prepared = 0
	return p == 2, p != 0
}

// SentPacket returns the packet this node transmitted (nil before the node
// forwards). Recovery layers retransmit it on request.
func (st *NodeState) SentPacket() *Packet { return st.sentPkt }

// SetSentPacket records the packet this node transmitted, so recovery
// retransmissions can serve it: the live executor calls it when the node
// forwards, and on journal replay after a crash (without forwarding again).
func (st *NodeState) SetSentPacket(pkt *Packet) { st.sentPkt = pkt }

// BuildForwardPacket assembles the packet node st transmits when forwarding:
// the last delivered copy's trail extended with this node's own entry (its id
// and designated forward set), capped to the piggyback depth, plus the
// optional extra payload. The executor stores it once (the simulator in its
// Arena slab, a live node on the heap) and has st retain that one packet for
// recovery retransmissions (SentPacket). Both executors share this logic so a
// live node's packets are bit-identical to the simulator's.
func (st *NodeState) BuildForwardPacket(designated, extra []int, depth int) Packet {
	trail := st.LastPacket.Trail
	entry := TrailEntry{Node: st.ID, Designated: append([]int(nil), designated...)}
	newTrail := make([]TrailEntry, 0, len(trail)+1)
	newTrail = append(newTrail, trail...)
	newTrail = append(newTrail, entry)
	if len(newTrail) > depth {
		newTrail = newTrail[len(newTrail)-depth:]
	}
	return Packet{
		Source:  st.LastPacket.Source,
		Session: st.LastPacket.Session,
		Trail:   newTrail,
		Extra:   extra,
	}
}

// RetiresViews reports whether the executor may stop merging copies into the
// views of p's decided nodes: p declares NonDesignating, so nothing reads
// such a view again (NodeState.ViewRetired).
func RetiresViews(p Protocol) bool {
	nd, ok := p.(NonDesignating)
	return ok && nd.NonDesignating() && !mergeEverywhere
}

// ViewRetired reports whether a copy delivered to the node owning st needs
// no MergeReceipt: the node has no view — the simulator keeps none where a
// settled verdict decides the node, nor under a protocol that reads no view —
// or it has decided (transmitted or taken non-forward status) under a
// protocol that retires decided nodes' views (retire, from RetiresViews).
// Both executors ask it before every merge.
func (st *NodeState) ViewRetired(retire bool) bool {
	return st.View == nil || retire && (st.Sent || st.NonForward)
}

// mergeEverywhere turns every view retirement off, so the package's tests can
// compare runs with and without it (export_test.go).
var mergeEverywhere = false

// MergeReceipt merges a delivered copy's broadcast state into node v's local
// view: the sender is marked visited (MAC-level snooping); the packet trail
// carries piggybacked visited nodes and their designated forward sets, which
// are merged with designation tracking. Merging is monotone (status only ever
// increases) and touches nothing but v's own state. A trail entry for the
// sender itself (its last entry at the default depth) is not marked visited
// a second time, which saves one member search per receipt. The simulator
// calls it from its delivery path, the live executor from the receiving
// node's handler, each only where the view is still read (ViewRetired).
func MergeReceipt(st *NodeState, v int, r Receipt) {
	st.View.MarkVisited(r.From)
	for _, entry := range r.Packet.Trail {
		if entry.Node != r.From {
			st.View.MarkVisited(entry.Node)
		}
		for _, d := range entry.Designated {
			if d == v {
				if !st.DesignatedByNode(entry.Node) {
					st.DesignatedBy = append(st.DesignatedBy, entry.Node)
				}
			}
			// A designated node (including this one) is promoted to the
			// intermediate 1.5 status of Section 4.2 under this view.
			st.View.MarkDesignated(d)
		}
	}
}

package sim

import "adhocbcast/internal/core"

// Runtime is the narrow executor surface a broadcast protocol drives: deliver
// and transmit packets, set decision timers, finalize statuses, and read the
// per-node state the common bookkeeping maintains. Two executors implement it:
//
//   - *Network, the discrete-event simulator (this package), where one Runtime
//     value hosts every node and event ordering is fully deterministic; and
//   - the live executor (internal/runtime), where each node is a goroutine
//     with its own per-node Runtime, real timers, and a channel radio.
//
// A protocol written against Runtime therefore runs unchanged in both worlds.
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
	// given designated forward set. A node transmits at most once.
	Transmit(v int, designated []int)
	// TransmitExtra is Transmit with a protocol-specific extra payload.
	TransmitExtra(v int, designated, extra []int)
	// RandomBackoff draws a uniform backoff delay from [0, BackoffWindow).
	RandomBackoff() float64
	// DegreeBackoff returns the FRBD backoff of node v, inversely
	// proportional to v's (view) degree.
	DegreeBackoff(v int) float64
	// ConservativeHold reports whether node v must refuse non-forward
	// status because its view is provably incomplete or stale (the
	// conservative fallback of the imperfect-views pipeline).
	ConservativeHold(v int) bool
	// TakePreparedCovered returns and consumes a precomputed coverage
	// verdict for node v's pending timer, when the executor produced one
	// (the simulator's parallel precompute phase; live executors always
	// report ok=false).
	TakePreparedCovered(v int) (covered, ok bool)
	// Evaluator returns the runtime's scratch coverage-condition evaluator.
	// Protocol callbacks on one runtime value run sequentially, so the
	// shared instance is safe and allocation-free.
	Evaluator() *core.Evaluator
	// Now returns the current time in simulation units (wall-clock scaled
	// by the configured time scale on live executors).
	Now() float64
}

var _ Runtime = (*Network)(nil)

// N returns the network size.
func (net *Network) N() int { return net.G.N() }

// ForEachLocalNode implements Runtime: the simulator hosts every node.
func (net *Network) ForEachLocalNode(yield func(v int)) {
	for v := 0; v < net.G.N(); v++ {
		yield(v)
	}
}

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

// MergeReceipt merges a delivered copy's broadcast state into node v's local
// view: the sender is marked visited (MAC-level snooping); the packet trail
// carries piggybacked visited nodes and their designated forward sets, which
// are merged with designation tracking. Merging is monotone (status only ever
// increases) and touches nothing but v's own state. The simulator calls it
// from its delivery path (including the fast engine's parallel pre-merge);
// the live executor calls it on each node's own goroutine.
func MergeReceipt(st *NodeState, v int, r Receipt) {
	st.View.MarkVisited(r.From)
	for _, entry := range r.Packet.Trail {
		st.View.MarkVisited(entry.Node)
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

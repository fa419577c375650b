package sim

// TrailEntry records one recently visited node carried in a broadcast
// packet, together with the designated forward set that node selected (see
// Figure 5 of the paper).
type TrailEntry struct {
	// Node is the visited node's id.
	Node int
	// Designated lists the forward neighbors Node selected, if any.
	Designated []int
}

// Packet is one transmission of the broadcast packet, built once by the
// transmitter (NodeState.BuildForwardPacket) and immutable from then on: every
// receiver's Receipt, queued event, MAC queue entry and remembering node state
// refers to the same value, so nothing may write to a delivered packet or to
// the slices it holds (simdebug builds verify that: Arena.checkPackets).
type Packet struct {
	// Source is the broadcast originator.
	Source int
	// Session is the broadcast session id the packet belongs to (0 outside
	// multi-session traffic runs). BuildForwardPacket propagates it from
	// the delivered copy, so forwards and recovery retransmissions stay
	// tagged end to end.
	Session int
	// Trail lists the h most recently visited nodes, oldest first; the last
	// entry is the transmitting node itself.
	Trail []TrailEntry
	// Extra is an optional protocol-specific payload (e.g. TDP piggybacks
	// the sender's 2-hop neighbor set).
	Extra []int
}

// Sender returns the transmitting node of this packet copy.
func (p Packet) Sender() int {
	if len(p.Trail) == 0 {
		return p.Source
	}
	return p.Trail[len(p.Trail)-1].Node
}

// SenderDesignated returns the designated forward set selected by the
// transmitting node.
func (p Packet) SenderDesignated() []int {
	if len(p.Trail) == 0 {
		return nil
	}
	return p.Trail[len(p.Trail)-1].Designated
}

// Receipt is the delivery of one packet copy to a node. It lives for the
// duration of the delivery only: executors build it at dispatch and log
// nothing (NodeState keeps first and last packet references and a count).
type Receipt struct {
	// From is the transmitting neighbor.
	From int
	// At is the delivery time.
	At float64
	// Packet is the delivered packet, shared by all receivers: read-only.
	Packet *Packet
}

// fingerprint hashes all a packet carries, slice lengths included (FNV-1a).
func (p *Packet) fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(xs ...int) {
		h = (h ^ uint64(len(xs))) * 1099511628211
		for _, x := range xs {
			h = (h ^ uint64(x)) * 1099511628211
		}
	}
	mix(p.Source, p.Session, len(p.Trail))
	for _, e := range p.Trail {
		mix(e.Node)
		mix(e.Designated...)
	}
	mix(p.Extra...)
	return h
}

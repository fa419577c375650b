package sim

type eventKind uint8

const (
	eventReceive eventKind = iota + 1
	eventTimer
	// eventNACK is a recovery request arriving at the original sender
	// (node); peer is the requesting receiver, attempt the retry number,
	// pkt the dropped copy's packet slot.
	eventNACK
	// eventRetransmit fires at the sender (node) when its recovery backoff
	// expires; it emits one unicast copy of packet slot pkt toward peer.
	eventRetransmit
	// eventSessionStart injects a new broadcast session (multi-session
	// traffic runs): node is the source, session the session id.
	eventSessionStart
	// eventTxAttempt fires when node may try to transmit its queue head
	// under the contention MAC (CarrierSense): it carrier-senses the
	// channel and either transmits or defers with a slotted backoff.
	eventTxAttempt
	// eventTransmit is one wireless broadcast from node: every neighbor
	// hears packet slot pkt at time at. It holds the block of deg(node)
	// sequence numbers seq … seq+deg−1, one per copy, and the loop expands
	// it into those eventReceive copies, in Adj(node) order, when it drains
	// the instant (Network.appendCopies). It never reaches dispatch.
	eventTransmit
)

// event is a scheduled simulator action, ordered by time with the insertion
// sequence number as a deterministic tie-breaker. It is 40 bytes (pinned by
// TestStateFootprint) and holds no pointer, so the calendar queue's sifts
// and batch copies move plain memory, with no GC write barrier: a receive,
// NACK, retransmit or transmission event names its packet by slot in the
// Arena slab, and the Receipt the protocol sees is rebuilt from (peer, at,
// pkt) at dispatch (Network.receipt).
type event struct {
	at      float64
	seq     int
	node    int32
	peer    int32 // the transmitter (eventReceive) or recovery counterpart (eventNACK, eventRetransmit)
	attempt int32 // recovery attempt: 0 for original copies, k for retry k
	session int32 // broadcast session id (0 outside multi-session runs)
	pkt     int32 // packet slab slot (eventReceive, eventNACK, eventRetransmit, eventTransmit)
	kind    eventKind
}

// receipt rebuilds the Receipt a receive event delivers.
func (net *Network) receipt(e *event) Receipt {
	return Receipt{From: int(e.peer), At: e.at, Packet: net.arena.packet(e.pkt)}
}

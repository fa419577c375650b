package sim

type eventKind uint8

const (
	eventReceive eventKind = iota + 1
	eventTimer
	// eventNACK is a recovery request arriving at the original sender
	// (node); peer is the requesting receiver, attempt the retry number.
	eventNACK
	// eventRetransmit fires at the sender (node) when its recovery backoff
	// expires; it emits one unicast copy toward peer.
	eventRetransmit
	// eventSessionStart injects a new broadcast session (multi-session
	// traffic runs): node is the source, session the session id.
	eventSessionStart
	// eventTxAttempt fires when node may try to transmit its queue head
	// under the contention MAC (CarrierSense): it carrier-senses the
	// channel and either transmits or defers with a slotted backoff.
	eventTxAttempt
)

// event is a scheduled simulator action, ordered by time with the insertion
// sequence number as a deterministic tie-breaker. It is 48 bytes (pinned by
// TestStateFootprint) and owns nothing: a receive event points at its
// transmission's Packet in the Arena slab, and the Receipt the protocol sees
// is rebuilt from (peer, at, pkt) at dispatch.
type event struct {
	at      float64
	seq     int
	pkt     *Packet // eventReceive: the delivered transmission
	node    int32
	peer    int32 // the transmitter (eventReceive) or recovery counterpart (eventNACK, eventRetransmit)
	attempt int32 // recovery attempt: 0 for original copies, k for retry k
	session int32 // broadcast session id (0 outside multi-session runs)
	kind    eventKind
}

// receipt rebuilds the Receipt a receive event delivers.
func (e *event) receipt() Receipt {
	return Receipt{From: int(e.peer), At: e.at, Packet: e.pkt}
}

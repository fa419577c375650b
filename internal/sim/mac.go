package sim

// The contention-aware MAC (Config.CarrierSense): per-node FIFO transmit
// queues, carrier sensing with a slotted random backoff, and an overlap
// collision model that garbles every copy whose air time intersects another
// in-range transmission — including the hidden-terminal overlaps carrier
// sensing cannot prevent. docs/traffic-model.md is the normative spec; the
// invariants relied on below:
//
//   - Transmissions all last exactly TransmitDelay, and tx starts are
//     processed in event order, so a transmission starting at s has the
//     latest arrival time s+delay seen so far at each of its receivers.
//     Per receiver it therefore suffices to track airEnd (latest in-flight
//     arrival) and garbleUntil (arrivals at or before this are garbled).
//   - Carrier sense sees only transmissions that started strictly before
//     now (a radio cannot sense a transmission starting at this instant),
//     which is exactly why simultaneous in-range starts still collide.
//   - txPending[v] is true iff a tx-attempt event for v is in flight;
//     enqueueTx arms it for an empty queue and every attempt either
//     transmits, defers, re-arms for the next head, or clears it.

import "adhocbcast/internal/obsv"

// txItem is one queued transmission: a broadcast forward (to == -1) or a
// unicast recovery retransmission toward to. 40 bytes (TestStateFootprint).
type txItem struct {
	designated []int // forward set of broadcast items (trace/metrics)
	pkt        int32 // the transmission's packet slab slot
	session    int32
	to         int32 // -1 for broadcast, else the recovery receiver
	attempt    int32 // recovery attempt of unicast items
}

// txRing is a FIFO transmit queue with an amortized-O(1) pop (items are
// released for GC as they leave; storage compacts when the queue empties).
type txRing struct {
	items []txItem
	head  int
}

func (q *txRing) len() int { return len(q.items) - q.head }

func (q *txRing) push(it txItem) { q.items = append(q.items, it) }

func (q *txRing) pop() txItem {
	it := q.items[q.head]
	q.items[q.head] = txItem{}
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return it
}

func (q *txRing) reset() {
	for i := range q.items {
		q.items[i] = txItem{}
	}
	q.items = q.items[:0]
	q.head = 0
}

// enqueueTx admits one packet to node v's transmit queue, tail-dropping it
// when the queue is full, and arms a tx-attempt event if none is in flight.
func (net *Network) enqueueTx(v int, it txItem) {
	q := &net.txq[v]
	if cap := net.Cfg.TxQueueCap; cap > 0 && q.len() >= cap {
		net.tally.QueueDrops++
		net.trace(obsv.TraceQueueDrop, it.session, v, -1, obsv.CauseTail, nil)
		// The queue stays non-empty, so an attempt is already pending.
		return
	}
	q.push(it)
	net.trace(obsv.TraceEnqueue, it.session, v, -1, "", nil)
	if !net.txPending[v] {
		net.txPending[v] = true
		net.armTxAttempt(v, net.now)
	}
}

// armTxAttempt schedules node v's next transmit opportunity.
func (net *Network) armTxAttempt(v int, at float64) {
	net.pushEvent(event{at: at, kind: eventTxAttempt, node: int32(v)})
}

// csBackoffSlots is the slotted backoff window W of the contention MAC: a
// node that senses the channel busy retries after a uniform 1..W whole
// transmission slots. Draws come from the dedicated "mac" RNG stream, so
// contention never perturbs the backoff, jitter, loss, or fault streams.
const csBackoffSlots = 4

// txAttempt processes one transmit opportunity at node v: wipe the queue if
// the node is down, transmit the head if the channel is clear, otherwise
// defer by a slotted random backoff.
func (net *Network) txAttempt(v int) {
	if net.down(v) {
		// A down node's MAC is off; its queued soft state dies with it
		// (the transmit-queue analog of cancelled timers).
		q := &net.txq[v]
		for q.len() > 0 {
			it := q.pop()
			net.tally.QueueDrops++
			net.trace(obsv.TraceQueueDrop, it.session, v, -1, obsv.CauseDown, nil)
		}
		net.txPending[v] = false
		return
	}
	q := &net.txq[v]
	if q.len() == 0 {
		net.txPending[v] = false
		return
	}
	if net.channelBusy(v) {
		net.tally.MACDeferrals++
		slots := 1 + net.rngs.get(streamMAC).Intn(csBackoffSlots)
		net.armTxAttempt(v, net.now+float64(slots)*net.Cfg.TransmitDelay)
		return
	}
	net.emitTx(v, q.pop())
	// The next head (if any) gets its chance when this transmission ends.
	if q.len() > 0 {
		net.armTxAttempt(v, net.busyUntil[v])
		return
	}
	net.txPending[v] = false
}

// channelBusy reports whether node v senses the channel busy now: its own
// radio is still transmitting (half-duplex), or some in-range transmission
// started strictly before now is still on the air. A transmission starting
// at exactly now is invisible — that is what makes simultaneous in-range
// starts collide instead of serializing.
func (net *Network) channelBusy(v int) bool {
	now := net.now
	if net.busyUntil[v] > now {
		return true
	}
	d := net.Cfg.TransmitDelay
	busy := false
	net.G.ForEachNeighbor(v, func(u int) {
		if busy {
			return
		}
		bu := net.busyUntil[u]
		// Started strictly before now (bu - d < now) and still on the air.
		if bu > now && bu-d < now {
			busy = true
		}
	})
	return busy
}

// emitTx puts one queued transmission on the air at the current instant:
// occupancy and per-receiver overlap tracking, copy scheduling, and — for
// broadcast forwards — the forward-order bookkeeping, trace event, and
// forward-set metric that the immediate (collision-free) path performs at
// Transmit time. A broadcast marks every receiver's overlap state now and
// goes to the queue as one eventTransmit (pushTransmit).
func (net *Network) emitTx(v int, it txItem) {
	arrive := net.now + net.Cfg.TransmitDelay
	net.busyUntil[v] = arrive
	if it.to >= 0 {
		// Unicast recovery retransmission: one copy toward the receiver.
		net.airCopy(int(it.to), arrive)
		net.pushRetransmit(it.session, int32(v), it.to, arrive, it.pkt, it.attempt)
		return
	}
	net.tally.Forward = append(net.tally.Forward, v)
	net.trace(obsv.TraceTransmit, it.session, v, -1, "", it.designated)
	if net.Cfg.Metrics != nil {
		net.Cfg.Metrics.ForwardSet.Observe(float64(len(it.designated)))
	}
	for _, u := range net.G.Adj(v) {
		net.airCopy(int(u), arrive)
	}
	net.pushTransmit(it.session, v, arrive, it.pkt)
}

// airCopy maintains receiver u's overlap state for a copy arriving at
// arrive: if this transmission started before the latest in-flight copy
// toward u lands, both copies are garbled (the overlap window extends
// garbleUntil to cover them).
func (net *Network) airCopy(u int, arrive float64) {
	if net.now < net.airEnd[u] && net.garbleUntil[u] < arrive {
		net.garbleUntil[u] = arrive
	}
	if net.airEnd[u] < arrive {
		net.airEnd[u] = arrive
	}
}

// garbledArrival reports whether the copy arriving at node v now was garbled
// in the air: it fell inside a marked overlap window, or v's own (half-
// duplex) transmission overlapped the copy's air time.
func (net *Network) garbledArrival(v int) bool {
	at := net.now
	if at <= net.garbleUntil[v] {
		return true
	}
	bu := net.busyUntil[v]
	d := net.Cfg.TransmitDelay
	// v transmitted over (bu-d, bu); the copy was on the air over
	// (at-d, at). Open-interval overlap: back-to-back is clean.
	return bu > at-d && bu-d < at
}

// resetMAC prepares the contention-MAC state for a run over n nodes.
func (net *Network) resetMAC(n int) {
	a := net.arena
	a.ensureMACScratch(n)
	net.busyUntil = a.busyUntil
	net.airEnd = a.airEnd
	net.garbleUntil = a.garbleUntil
	net.txPending = a.txPending
	net.txq = a.txq
	for v := 0; v < n; v++ {
		net.busyUntil[v] = 0
		net.airEnd[v] = 0
		net.garbleUntil[v] = 0
		net.txPending[v] = false
		net.txq[v].reset()
	}
}

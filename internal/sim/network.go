package sim

import (
	"fmt"
	"math"
	"slices"

	"adhocbcast/internal/core"
	"adhocbcast/internal/fault"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/view"
)

// Protocol is a broadcast protocol plugged into an executor. One Protocol
// value serves a single run on a single Runtime; stateful protocols keep
// per-run state in themselves. The simulator drives one instance per
// broadcast session for the whole network; the live executor
// (internal/runtime) drives one instance per node, which the Runtime
// contract's locality property makes equivalent.
type Protocol interface {
	// Name returns the protocol's display name.
	Name() string
	// Init runs once per run after local views are built; static protocols
	// compute their forward statuses here, iterating the runtime's local
	// nodes (Runtime.ForEachLocalNode).
	Init(rt Runtime)
	// Start handles the broadcast source at time 0. The source always
	// forwards; protocols that designate forward neighbors select them here.
	Start(rt Runtime, source int)
	// OnReceive handles delivery of one packet copy to node v. The executor
	// has already recorded the receipt and merged the packet's broadcast
	// state into v's local view.
	OnReceive(rt Runtime, v int, r Receipt)
	// OnTimer fires a timer previously set with Runtime.SetTimer.
	OnTimer(rt Runtime, v int)
}

// NodeState is the executor-side state of one node: what the paper's scheme
// lets a node own besides its view — which copy came first, which came last,
// what it transmitted, who designated it. It keeps no history of the copies
// heard (a counter only) and no packet of its own: the three packet fields
// refer to the transmitters' packets, which are immutable (see Packet). 80
// bytes per node and per traffic session; TestStateFootprint pins that.
type NodeState struct {
	// ID is the node id.
	ID int
	// View is the node's local view (topology plus learned broadcast
	// state).
	View *view.Local
	// FirstFrom is the sender of the first copy (-1 at the source).
	FirstFrom int
	// FirstPacket is the first delivered packet (nil until one arrives).
	FirstPacket *Packet
	// LastPacket is the most recently delivered packet; its trail seeds the
	// trail of this node's own transmission.
	LastPacket *Packet
	// DesignatedBy lists the nodes that designated this node as a forward
	// node, in learning order.
	DesignatedBy []int

	// sentPkt is the packet this node transmitted, kept for recovery-layer
	// retransmissions.
	sentPkt *Packet

	// Receipts counts the delivered copies.
	Receipts int32
	// Received reports whether at least one packet copy arrived.
	Received bool
	// Sent reports whether the node has transmitted.
	Sent bool
	// NonForward reports a finalized non-forward decision.
	NonForward bool

	// prepared is the coverage verdict a single run's sharded precompute
	// produced for this node's pending timer: 0 none, 1 uncovered, 2
	// covered. It sits in the padding after the flags, and the zero value
	// means none, so a struct-literal reset clears it.
	prepared int8
}

// Designated reports whether any node designated this node.
func (st *NodeState) Designated() bool { return len(st.DesignatedBy) > 0 }

// DesignatedByNode reports whether node u designated this node.
func (st *NodeState) DesignatedByNode(u int) bool {
	for _, x := range st.DesignatedBy {
		if x == u {
			return true
		}
	}
	return false
}

// Result summarizes one simulated broadcast.
type Result struct {
	// Forward lists the transmitting nodes (including the source) in
	// transmission order.
	Forward []int
	// Delivered is the number of nodes that received the packet.
	Delivered int
	// N is the network size.
	N int
	// Finish is the time of the last event.
	Finish float64
	// Receipts is the total number of packet copies delivered (a measure
	// of channel load and redundancy).
	Receipts int
	// Copies is the total number of packet copies transmitted, including
	// recovery retransmissions. Every copy is eventually delivered or
	// dropped: Receipts + Lost + Collided + FaultDrops() == Copies.
	Copies int
	// Lost counts copies dropped by the random-loss model.
	Lost int
	// Collided counts copies dropped by the collision model.
	Collided int
	// DroppedNodeDown counts copies dropped because the receiver was
	// crashed or churned down at arrival time.
	DroppedNodeDown int
	// DroppedLinkDown counts copies dropped because the link was down at
	// arrival time.
	DroppedLinkDown int
	// TimersCancelled counts protocol timers cancelled because their owner
	// was down when they fired.
	TimersCancelled int
	// NACKs counts recovery requests sent by receivers.
	NACKs int
	// Retransmits counts recovery retransmissions sent (a subset of
	// Copies).
	Retransmits int
	// QueueDrops counts packets dropped from contention-MAC transmit
	// queues (capacity overflow, or a queue wiped when its node went
	// down). Queued packets never became transmitted copies, so queue
	// drops are outside the Copies conservation identity. Zero without
	// CarrierSense.
	QueueDrops int
	// MACDeferrals counts transmit attempts deferred because carrier sense
	// found the channel busy. Zero without CarrierSense.
	MACDeferrals int
	// Reachable is the number of nodes reachable from the source once the
	// fault plan's crashed nodes are removed (N when no plan is set).
	Reachable int
	// DeliveredReachable is the number of reachable nodes that received
	// the packet.
	DeliveredReachable int
}

// DeliveryRatio returns the fraction of nodes that received the packet.
func (r Result) DeliveryRatio() float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.N)
}

// ReachableDeliveryRatio returns the fraction of *reachable* nodes that
// received the packet: delivered over the nodes still connected to the source
// after removing crashed nodes. Under a partitioning fault plan this scores
// the protocol only on the nodes it could possibly have served, so a
// partitioned network is not counted as a protocol failure. Without a fault
// plan it equals DeliveryRatio.
func (r Result) ReachableDeliveryRatio() float64 {
	if r.Reachable == 0 {
		return 0
	}
	return float64(r.DeliveredReachable) / float64(r.Reachable)
}

// FaultDrops returns the total copies dropped by the fault plan, by any
// cause.
func (r Result) FaultDrops() int { return r.DroppedNodeDown + r.DroppedLinkDown }

// ForwardCount returns the number of forward (transmitting) nodes.
func (r Result) ForwardCount() int { return len(r.Forward) }

// FullDelivery reports whether every node received the packet.
func (r Result) FullDelivery() bool { return r.Delivered == r.N }

// Network is one simulation run: the topology, channel, fault plan, RNG
// streams and event queue its broadcast sessions share.
type Network struct {
	// G is the true connectivity graph.
	G *graph.Graph
	// Cfg is the run configuration (defaults applied).
	Cfg Config
	// Source is the broadcast originator.
	Source int

	arena   *Arena
	rngs    streams
	plan    *fault.Plan
	now     float64
	seq     int
	workers int  // precompute workers of a single run (0 in traffic runs)
	sharded bool // a batch of this run went through the parallel precompute

	// The run's broadcasts, indexed by session id. A single run is session
	// 0, held in solo so that it allocates nothing of its own.
	sessions  []session
	solo      [1]session
	newProto  func() Protocol // traffic runs' per-session protocol factory
	delivered int             // first deliveries across sessions

	// Contention-MAC state (CarrierSense; nil/zero otherwise). All slices
	// are arena scratch, reset per run.
	busyUntil   []float64 // per transmitter: end of its transmission on the air
	airEnd      []float64 // per receiver: latest in-flight arrival time
	garbleUntil []float64 // per receiver: arrivals at or before this are garbled
	txPending   []bool    // per node: a tx-attempt event is in flight
	txq         []txRing  // per-node FIFO transmit queues

	// tally accumulates the forward list and the channel accounting in the
	// Result fields of the same names; the rest is filled when the run ends.
	tally Result
}

// Run simulates one broadcast of protocol p from source over g and returns
// the outcome. It returns an error only for invalid inputs (out-of-range
// source, malformed Config or fault plan); protocol behavior (including
// failed delivery) is reported in the Result.
func Run(g *graph.Graph, source int, p Protocol, cfg Config) (Result, error) {
	return RunWith(nil, g, source, p, cfg)
}

// RunWith is Run on an explicit Arena, which consecutive runs reuse (see
// Arena for what they share and what callers must not do between them). A
// nil Arena allocates a private one. An Arena serves one run at a time;
// concurrent runs need one each.
func RunWith(a *Arena, g *graph.Graph, source int, p Protocol, cfg Config) (Result, error) {
	net, err := newRun(a, g, source, p, cfg)
	if err != nil {
		return Result{}, err
	}
	net.loop()
	return net.result(), nil
}

// newRun builds the Network of one single-broadcast run up to the point where
// only the event loop remains: configuration checked, views built, protocol
// initialised and started at the source.
func newRun(a *Arena, g *graph.Graph, source int, p Protocol, cfg Config) (*Network, error) {
	if source < 0 || source >= g.N() {
		return nil, fmt.Errorf("sim: source %d out of range [0,%d)", source, g.N())
	}
	if err := cfg.validate(g.N()); err != nil {
		return nil, err
	}
	net := newNetwork(a, g, source, cfg)
	net.workers = cfg.workerBudget()
	net.solo[0] = session{net: net, source: source, proto: p, nodes: net.build()}
	net.sessions = net.solo[:]
	net.begin(&net.sessions[0])
	return net, nil
}

// newNetwork returns the Network of one run (single or traffic) over a
// validated cfg, with the arena's per-run state — event queue, packet slab,
// loop and MAC scratch — reset for it. A nil Arena allocates a private one.
func newNetwork(a *Arena, g *graph.Graph, source int, cfg Config) *Network {
	if a == nil {
		a = NewArena()
	}
	net := &Network{
		G:      g,
		Cfg:    cfg.withDefaults(),
		Source: source,
		arena:  a,
		rngs:   streams{seed: cfg.Seed},
		plan:   cfg.Faults,
	}
	a.cal.reset(net.Cfg.TransmitDelay)
	a.ensureLoopScratch(g.N())
	a.npkts, a.pktSums = 0, a.pktSums[:0]
	a.settled.hits.Store(0)
	a.settled.evals.Store(0)
	a.settled.passEvals.Store(0)
	a.latencies = slices.Grow(a.latencies[:0], g.N()) // room for a single run's n first deliveries
	if net.Cfg.CarrierSense {
		net.resetMAC(g.N())
	}
	if m := net.Cfg.Metrics; m != nil {
		m.Reset()
	}
	return net
}

// build returns a single run's node states over the arena's views.
func (net *Network) build() []NodeState {
	n := net.G.N()
	a := net.arena
	nodes := a.stateNodes(n)
	if p, ok := net.Cfg.Views.(PerNodeViews); ok {
		// Per-node views: every node's local view AND its priority metrics
		// come from its own (possibly wrong) graph. Nodes therefore disagree
		// not only about links but also about degree-derived priorities —
		// exactly the divergence a lossy hello exchange produces. Divergent
		// views can never share the arena's view cache, so they are built
		// fresh every run.
		for v := 0; v < n; v++ {
			gv := p.Views.Graph(v)
			base := view.BasePriorities(gv, net.Cfg.Metric)
			nodes[v].View = a.builder.Build(gv, v, net.Cfg.Hops, base)
		}
		return nodes
	}
	// Every other variant gives all nodes one view graph (priorities included).
	views := a.viewsFor(net.viewGraphOf(net.Source), net.Cfg.Hops, net.Cfg.Metric, net.workers)
	for v := 0; v < n; v++ {
		nodes[v].View = &views[v]
	}
	return nodes
}

// begin runs session s's set-up at its injection instant: settled verdicts
// handed over, protocol Init, the source's delivery, protocol Start. The
// source holds a trail-less packet from the start — its own transmission
// extends that — and its first delivery is reported at injection time with
// sender -1, so latency statistics do not wait for a neighbor's
// retransmission to echo back.
func (net *Network) begin(s *session) {
	net.offerSettled(s)
	s.proto.Init(s)
	st := &s.nodes[s.source]
	p := net.arena.addPacket(Packet{Source: s.source, Session: int(s.id)})
	st.Received = true
	st.FirstPacket, st.LastPacket = p, p
	net.trace(obsv.TraceDeliver, s.id, s.source, -1, "", nil)
	net.firstDelivery(s)
	s.proto.Start(s, s.source)
}

// firstDelivery accounts a node's first copy of session s at the current
// time: latency is relative to the session's injection.
func (net *Network) firstDelivery(s *session) {
	net.delivered++
	lat := net.now - s.start
	net.arena.latencies = append(net.arena.latencies, lat)
	if net.Cfg.Metrics != nil {
		net.Cfg.Metrics.Latency.Observe(lat)
	}
}

// down reports whether node v is down (crashed or churned) at the current
// simulation time.
func (net *Network) down(v int) bool {
	return net.plan != nil && net.plan.NodeDownAt(v, net.now)
}

func (net *Network) dispatch(e *event) {
	switch e.kind {
	case eventReceive:
		if net.dropByFault(e) {
			return
		}
		if net.Cfg.CarrierSense && net.garbledArrival(int(e.node)) {
			net.tally.Collided++
			net.maybeNACK(e)
			return
		}
		net.handleReceive(e, false)
	case eventTimer:
		if net.down(int(e.node)) {
			// A down node loses its pending decision timers: a crashed
			// node forever, a churned node because the reboot wiped its
			// soft state.
			net.tally.TimersCancelled++
			return
		}
		s := &net.sessions[e.session]
		s.proto.OnTimer(s, int(e.node))
	case eventNACK:
		net.handleNACK(e)
	case eventRetransmit:
		net.handleRetransmit(e)
	case eventSessionStart:
		net.startSession(e.session)
	case eventTxAttempt:
		net.txAttempt(int(e.node))
	}
}

// dropByFault drops a receive event whose receiver or link is down at
// arrival time, accounting the drop by cause. It is idempotent for events
// that are not dropped, so the collision path may pre-filter a batch and
// dispatch the survivors through the normal path.
func (net *Network) dropByFault(e *event) bool {
	if net.plan == nil {
		return false
	}
	if net.plan.NodeDownAt(int(e.node), net.now) {
		net.tally.DroppedNodeDown++
		return true
	}
	if net.plan.LinkDownAt(int(e.peer), int(e.node), net.now) {
		net.tally.DroppedLinkDown++
		return true
	}
	return false
}

// handleReceive delivers receive event e's packet copy to its node. merged
// marks a copy whose view merge already happened in the loop's parallel
// pre-merge phase (see precompute); everything order-sensitive — RNG
// draws, counters, trace events, receipt bookkeeping, the protocol callback —
// still runs here, in event order.
func (net *Network) handleReceive(e *event, merged bool) {
	sid, v, r := e.session, int(e.node), e.receipt()
	if debugChecks && net.down(v) {
		panic(fmt.Sprintf("sim: delivery dispatched to down node %d at %v", v, net.now))
	}
	if net.Cfg.LossRate > 0 && net.rngs.get(streamLoss).Float64() < net.Cfg.LossRate {
		net.tally.Lost++
		// The receiver detected a garbled transmission it could not
		// decode: with recovery enabled it asks the sender to retry.
		net.maybeNACK(e)
		return
	}
	net.tally.Receipts++
	net.trace(obsv.TraceDeliver, sid, v, r.From, "", nil)
	s := &net.sessions[sid]
	st := &s.nodes[v]
	if st.RecordReceipt(r) {
		net.firstDelivery(s)
	}
	if !merged {
		MergeReceipt(st, v, r)
	}
	s.proto.OnReceive(s, v, r)
}

// maybeNACK schedules a recovery request from the receiver of copy e to its
// sender after the copy was dropped by loss or collision (the drops a radio
// can detect; a down node or link leaves nothing to overhear). The request
// asks for the retry after the dropped copy's, bounded by the retry budget.
// Receivers that already hold the packet do not bother.
func (net *Network) maybeNACK(e *event) {
	if !net.Cfg.NACKRecovery || net.sessions[e.session].nodes[e.node].Received {
		return
	}
	next := e.attempt + 1
	if int(next) > net.Cfg.RetryBudget {
		return
	}
	net.tally.NACKs++
	net.pushEvent(event{
		at:      net.now + net.Cfg.NACKDelay,
		kind:    eventNACK,
		node:    e.peer,
		peer:    e.node,
		attempt: next,
		session: e.session,
	})
}

// maxRetryExponent caps the exponential retry backoff at RetryBackoff * 2^12
// (4096 slots — far beyond any broadcast horizon). Without the cap a large
// RetryBudget lets Ldexp overflow the delay to +Inf, which would wedge the
// calendar queue; a recovery attempt thousands of slots out is equivalent to
// a dead chain anyway, so capping changes nothing observable for sane budgets.
const maxRetryExponent = 12

// RetryBackoffDelay returns the bounded exponential backoff before recovery
// retransmission k (1-based): base * 2^(k-1), capped at base * 2^maxRetryExponent.
// Both executors use it so live recovery timing matches the simulator's.
func RetryBackoffDelay(base float64, attempt int) float64 {
	return math.Ldexp(base, min(attempt-1, maxRetryExponent))
}

// handleNACK processes a recovery request arriving at the original sender:
// the retransmission is scheduled after an exponential backoff, unless the
// sender itself is down by now (then the recovery chain dies — there is
// nobody left to retry).
func (net *Network) handleNACK(e *event) {
	if net.down(int(e.node)) {
		return
	}
	delay := RetryBackoffDelay(net.Cfg.RetryBackoff, int(e.attempt))
	if net.Cfg.CarrierSense {
		// Hidden terminals cannot sense each other, so symmetric recovery
		// chains with identical deterministic backoffs would retry in
		// lockstep and re-collide forever. Classic binary exponential
		// backoff: spread the retry by a random whole-slot count within a
		// window that doubles per attempt.
		exp := min(e.attempt, maxRetryExponent)
		delay += float64(net.rngs.get(streamMAC).Intn(1<<uint(exp))) * net.Cfg.TransmitDelay
	}
	net.pushEvent(event{
		at:      net.now + delay,
		kind:    eventRetransmit,
		node:    e.node,
		peer:    e.peer,
		attempt: e.attempt,
		session: e.session,
	})
}

// handleRetransmit emits one unicast recovery copy from sender e.node to
// receiver e.peer, subject to the same loss, collision, and fault filters as
// any other copy.
func (net *Network) handleRetransmit(e *event) {
	u := int(e.node)
	st := &net.sessions[e.session].nodes[u]
	if net.down(u) || !st.Sent {
		return
	}
	if net.Cfg.CarrierSense {
		// Under the contention MAC the recovery copy shares the radio:
		// it queues behind the node's pending broadcasts, waits for a
		// clear channel, and can itself collide — so recovery is
		// exercised under the same contention that caused the drop.
		net.enqueueTx(u, txItem{
			session: e.session,
			pkt:     st.sentPkt,
			to:      e.peer,
			attempt: e.attempt,
		})
		return
	}
	arrive := net.now + net.Cfg.TransmitDelay
	if net.Cfg.TxJitter > 0 {
		// Recovery retransmissions jitter from the fault stream so they
		// never perturb the jitter draws of regular transmissions.
		arrive += net.rngs.get(streamFault).Float64() * net.Cfg.TxJitter
	}
	net.tally.Retransmits++
	net.tally.Copies++
	net.pushEvent(event{
		at:      arrive,
		kind:    eventReceive,
		node:    e.peer,
		peer:    e.node,
		pkt:     st.sentPkt,
		attempt: e.attempt,
		session: e.session,
	})
}

// counters returns the tally with the run's size and finish time filled in.
func (net *Network) counters() Result {
	res := net.tally
	res.N, res.Finish = net.G.N(), net.now
	return res
}

// FillRecord copies the outcome's size, delivery and channel counters into m:
// the fields every executor's run record shares. View-level fields
// (ViewIncompleteNodes, StaleViewHolds) and histograms are the caller's.
func (r Result) FillRecord(m *obsv.RunRecord) {
	m.N = r.N
	m.Delivered = r.Delivered
	m.Forward = len(r.Forward)
	m.Copies = r.Copies
	m.Receipts = r.Receipts
	m.Lost = r.Lost
	m.Collided = r.Collided
	m.DroppedNodeDown = r.DroppedNodeDown
	m.DroppedLinkDown = r.DroppedLinkDown
	m.TimersCancelled = r.TimersCancelled
	m.NACKs = r.NACKs
	m.Retransmits = r.Retransmits
	m.QueueDrops = r.QueueDrops
	m.MACDeferrals = r.MACDeferrals
	m.Reachable = r.Reachable
	m.DeliveredReachable = r.DeliveredReachable
	m.Finish = r.Finish
}

// Score sets the delivery counts of a run over g from source under plan (nil
// for none), given which nodes received the packet: Delivered, and Reachable
// / DeliveredReachable over the nodes still reachable from source once the
// plan's crashed nodes are removed. Without a plan every node is scored (a
// disconnected input graph is a workload property, not a fault). Both
// executors score their runs through it.
func (r *Result) Score(g *graph.Graph, source int, plan *fault.Plan, received func(v int) bool) {
	var reach []bool
	if plan != nil {
		reach = plan.ReachableFrom(g, source)
	}
	r.Delivered, r.Reachable, r.DeliveredReachable = 0, 0, 0
	for v := 0; v < g.N(); v++ {
		got := received(v)
		if got {
			r.Delivered++
		}
		if reach == nil || reach[v] {
			r.Reachable++
			if got {
				r.DeliveredReachable++
			}
		}
	}
}

func (net *Network) result() Result {
	res := net.counters()
	nodes := net.sessions[0].nodes
	res.Score(net.G, net.Source, net.plan, func(v int) bool { return nodes[v].Received })
	net.finish(res)
	return res
}

// finish ends a run whose outcome is res: simdebug builds check the drop
// accounting and the packets, and the run record gets the counters and the
// Views variant's fields. A traffic run scores res over (session, node)
// pairs.
func (net *Network) finish(res Result) {
	if debugChecks {
		if got := res.Receipts + res.Lost + res.Collided + res.FaultDrops(); got != res.Copies {
			panic(fmt.Sprintf("sim: drop accounting broken: receipts %d + lost %d + collided %d + faultDrops %d != copies %d",
				res.Receipts, res.Lost, res.Collided, res.FaultDrops(), res.Copies))
		}
		net.arena.checkPackets()
	}
	if m := net.Cfg.Metrics; m != nil {
		res.FillRecord(m)
		if net.Cfg.Views != nil {
			net.Cfg.Views.record(net.G, m)
		}
	}
}

// Evaluator returns this run's shared coverage-condition evaluator. Protocol
// callbacks run sequentially, so every node decision of the run reuses one
// set of scratch buffers instead of allocating per evaluation. The parallel
// precompute phase uses it only on the dispatching goroutine, for shard 0;
// its helper goroutines get private evaluators.
func (net *Network) Evaluator() *core.Evaluator {
	return net.arena.evaluator(net.G.N())
}

// RandomBackoff draws a uniform backoff delay from [0, BackoffWindow).
func (net *Network) RandomBackoff() float64 {
	return net.rngs.get(streamBackoff).Float64() * net.Cfg.BackoffWindow
}

// DegreeBackoff returns the backoff of the FRBD policy, proportional to the
// inverse of the node degree so that higher-degree nodes decide earlier:
// BackoffWindow * avgDegree / deg(v). The average-degree scaling keeps the
// spread between degree classes larger than the transmission delay, so
// low-degree nodes actually hear their high-degree neighbors forward before
// deciding.
func (net *Network) DegreeBackoff(v int) float64 {
	// Degrees come from the node's (possibly stale or private) knowledge.
	vg := net.viewGraphOf(v)
	d := vg.Degree(v)
	if d == 0 {
		return net.Cfg.BackoffWindow
	}
	return net.Cfg.BackoffWindow * vg.AverageDegree() / float64(d)
}

// viewGraphOf returns the topology node v's knowledge is built from.
func (net *Network) viewGraphOf(v int) *graph.Graph {
	if net.Cfg.Views == nil {
		return net.G
	}
	return net.Cfg.Views.graphOf(net.G, v)
}

// ConservativeHold reports whether node v must refuse non-forward status: v
// knows its own view may be missing links (PerNodeViews with Hold) or is
// provably stale (BeaconedViews expiry), so any "I am covered" conclusion it
// draws is untrustworthy. Protocols consult this wherever a coverage
// condition would justify non-forward status (see the protocol engine). The
// check is a pure function of (v, net.now) — the precompute workers call it
// concurrently, and seed-matched live runs reach the same verdicts. With the
// default nil Views it is one nil check.
func (net *Network) ConservativeHold(v int) bool {
	return net.Cfg.Views != nil && net.Cfg.Views.hold(net.G, v, net.now)
}

// Transmit makes node v forward the broadcast packet now, carrying the
// given designated forward set and protocol-specific extra payload: every
// neighbor receives a copy after TransmitDelay, or, under the contention
// MAC, once the node's transmit queue gets the channel. A node forwards at
// most once, and a node that is down at transmission time stays silent.
func (s *session) Transmit(v int, designated, extra []int) {
	net, sid := s.net, s.id
	st := &s.nodes[v]
	if st.Sent || net.down(v) {
		return
	}
	st.Sent = true
	st.View.MarkVisited(v)
	// The transmission's one packet: every copy scheduled below, the MAC
	// queue entry and the sender's retransmission state refer to it.
	pkt := net.arena.addPacket(st.BuildForwardPacket(designated, extra, net.Cfg.PiggybackDepth))
	st.sentPkt = pkt
	if net.Cfg.CarrierSense {
		// The forward decision is final (Sent above), but the packet is
		// built now and transmitted by the MAC when the channel allows:
		// forward-order bookkeeping, trace events, and metrics fire at actual
		// transmission time (see emitTx).
		net.enqueueTx(v, txItem{
			session:    sid,
			pkt:        pkt,
			designated: append([]int(nil), designated...),
			to:         -1,
		})
		return
	}
	net.tally.Forward = append(net.tally.Forward, v)
	net.trace(obsv.TraceTransmit, sid, v, -1, "", designated)
	if net.Cfg.Metrics != nil {
		net.Cfg.Metrics.ForwardSet.Observe(float64(len(designated)))
	}

	arrive := net.now + net.Cfg.TransmitDelay
	if net.Cfg.TxJitter > 0 {
		// One jitter draw per transmission: all neighbors hear the same
		// (delayed) transmission at the same instant.
		arrive += net.rngs.get(streamJitter).Float64() * net.Cfg.TxJitter
	}
	net.G.ForEachNeighbor(v, func(u int) {
		net.tally.Copies++
		net.pushEvent(event{
			at:      arrive,
			kind:    eventReceive,
			node:    int32(u),
			peer:    int32(v),
			pkt:     pkt,
			session: sid,
		})
	})
}

// pushEvent schedules e, stamping it with the next sequence number — the
// tie-breaker that makes same-time events dispatch in scheduling order.
func (net *Network) pushEvent(e event) {
	net.seq++
	e.seq = net.seq
	net.arena.cal.push(e)
}

package runtime

import (
	"fmt"
	"math/rand"

	"adhocbcast/internal/core"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/view"
)

// Transport is everything a node Core needs from its executor: send packets
// and recovery traffic, schedule callbacks on the node's own execution
// context, and account protocol events. Node implements it once per broadcast
// message, over whatever Wire and clock the node runs on. All methods are
// called from the node's own execution context only.
type Transport interface {
	// Broadcast radios pkt to all true neighbors and records the forward.
	Broadcast(pkt sim.Packet)
	// Unicast sends one recovery retransmission copy to a single neighbor.
	Unicast(to int, pkt sim.Packet, attempt int)
	// NACK sends a recovery request for retransmission `attempt` to a
	// neighbor over the (reliable, but down-node-dropping) control channel.
	NACK(to int, attempt int)
	// AfterTimer schedules fn as a protocol decision timer after d time
	// units on the node's execution context. A timer whose node is down
	// when it fires is cancelled (and counted), mirroring the simulator.
	AfterTimer(d float64, fn func())
	// AfterRecovery schedules fn as recovery-layer bookkeeping after d time
	// units on the node's execution context; it is silently skipped if the
	// node is down when it fires.
	AfterRecovery(d float64, fn func())
	// Now returns the current time in time units.
	Now() float64
	// NoteDeliver accounts one delivered copy (first = first copy at this
	// node).
	NoteDeliver(first bool, at float64)
	// NoteNACK accounts one recovery request issued by this node.
	NoteNACK()
}

// CoreConfig carries the per-node slice of Config a Core needs.
type CoreConfig struct {
	N              int
	PiggybackDepth int
	BackoffWindow  float64
	TransmitDelay  float64
	NACKRecovery   bool
	RetryBudget    int
	NACKDelay      float64
	RetryBackoff   float64
	JitterFrac     float64
	// StaleView, when non-nil, reports whether the node's dynamic-hello view
	// is stale at time now (some view-neighbor past its beacon expiry; see
	// hello.Dynamic); a stale node holds its forwarding (ConservativeHold).
	StaleView func(v int, now float64) bool
}

// Core is one live node: it implements sim.Runtime scoped to a single node
// id, hosts that node's protocol instance and bookkeeping state, and drives
// all I/O through a Transport. Every method must be called from the node's
// own execution context; the Core itself is free of locks because its Node
// serializes all entry points (packets, timers, recovery) onto that context.
type Core struct {
	id          int
	cfg         CoreConfig
	proto       sim.Protocol
	retire      bool // sim.RetiresViews(proto): a decided node's view takes no merges or marks
	st          *sim.NodeState
	viewG       *graph.Graph
	out         Transport
	backoff     *rand.Rand // seeded from backoffSeed on first draw
	backoffSeed int64
	eval        *core.Evaluator // built on first use unless the executor shares one
}

// NewCore builds the live runtime core of node id. lv is the node's local
// view (freshly built or status-reset), viewG the topology it was built
// from, and backoffSeed the seed of the node's private backoff stream.
func NewCore(id int, proto sim.Protocol, lv *view.Local, viewG *graph.Graph,
	cfg CoreConfig, out Transport, backoffSeed int64) *Core {
	return &Core{
		id:     id,
		cfg:    cfg,
		proto:  proto,
		retire: sim.RetiresViews(proto),
		st: &sim.NodeState{
			ID:        id,
			View:      lv,
			FirstFrom: -1,
		},
		viewG:       viewG,
		out:         out,
		backoffSeed: backoffSeed,
	}
}

// Init runs the protocol's per-run initialization (static protocols compute
// their own forward status here). The executor calls it once before any
// traffic, from any goroutine, as long as no handler runs concurrently.
func (c *Core) Init() { c.proto.Init(c) }

// Delivered reports whether this node has received the packet.
func (c *Core) Delivered() bool { return c.st.Received }

// Forwarded reports whether this node has transmitted.
func (c *Core) Forwarded() bool { return c.st.Sent }

// Start makes this node the broadcast source: it holds the packet from the
// start (reported as a t=0 self-delivery, as in the simulator) and runs the
// protocol's source handling.
func (c *Core) Start() {
	c.st.Received = true
	c.st.FirstPacket = &sim.Packet{Source: c.id}
	c.st.LastPacket = c.st.FirstPacket
	c.proto.Start(c, c.id)
}

// HandlePacket delivers one packet copy: shared bookkeeping (receipt record,
// view merge unless the view is retired) followed by the protocol's
// OnReceive, in the simulator's order. Packets cross the wire and the
// Transport by value; this node's copy moves to the heap here, where the node
// state starts referring to it.
func (c *Core) HandlePacket(from int, pkt sim.Packet, at float64) {
	r := sim.Receipt{From: from, At: at, Packet: &pkt}
	first := c.st.RecordReceipt(r)
	c.out.NoteDeliver(first, at)
	if !c.st.ViewRetired(c.retire) {
		sim.MergeReceipt(c.st, c.id, r)
	}
	c.proto.OnReceive(c, c.id, r)
}

// HandleGarble reacts to a detectable drop: the node overheard a copy
// (original transmission attempt 0, or recovery retransmission attempt k)
// it could not decode. With recovery enabled and the packet still missing it
// NACKs the sender for the next attempt, and — beyond the simulator —
// schedules a re-request for the case where the granted retransmission
// itself vanishes silently (sender down, copy dropped at a down link with
// silent drops): the recovery chain is receiver-driven, so it survives a
// sender that is down when the request arrives.
func (c *Core) HandleGarble(from int, attempt int) {
	if !c.cfg.NACKRecovery || c.st.Received {
		return
	}
	next := attempt + 1
	if next > c.cfg.RetryBudget {
		return
	}
	c.out.NoteNACK()
	c.out.AfterRecovery(c.cfg.NACKDelay, func() {
		if !c.st.Received {
			c.out.NACK(from, next)
		}
	})
	// Expected round trip of the granted retransmission: request transit,
	// sender backoff, copy transit with jitter, plus one transmit delay of
	// slack for scheduling noise.
	wait := c.cfg.NACKDelay + sim.RetryBackoffDelay(c.cfg.RetryBackoff, next) +
		c.cfg.TransmitDelay*(2+c.cfg.JitterFrac)
	c.out.AfterRecovery(wait, func() {
		if !c.st.Received {
			c.HandleGarble(from, next)
		}
	})
}

// HandleNACK processes a recovery request arriving at this node (the
// original sender): the retransmission is scheduled after the simulator's
// bounded exponential backoff. A node that never transmitted has nothing to
// retransmit.
func (c *Core) HandleNACK(peer int, attempt int) {
	if !c.st.Sent {
		return
	}
	delay := sim.RetryBackoffDelay(c.cfg.RetryBackoff, attempt)
	c.out.AfterRecovery(delay, func() {
		c.out.Unicast(peer, *c.st.SentPacket(), attempt)
	})
}

// --- sim.Runtime ---

var _ sim.Runtime = (*Core)(nil)

// N returns the network size.
func (c *Core) N() int { return c.cfg.N }

// ForEachLocalNode implements sim.Runtime: a live runtime hosts exactly one
// node.
func (c *Core) ForEachLocalNode(yield func(v int)) { yield(c.id) }

// State returns this node's state. Asking a live runtime for another node's
// state is a protocol bug — it would violate the locality property the
// paper's distributed scheme is built on — and panics loudly.
func (c *Core) State(v int) *sim.NodeState {
	if v != c.id {
		panic(fmt.Sprintf("runtime: node %d asked for state of node %d (protocol violates locality)", c.id, v))
	}
	return c.st
}

// SetTimer schedules an OnTimer callback after delay time units.
func (c *Core) SetTimer(v int, delay float64) {
	c.out.AfterTimer(delay, func() { c.proto.OnTimer(c, c.id) })
}

// MarkNonForward finalizes a non-forward decision.
func (c *Core) MarkNonForward(v int) { c.st.NonForward = true }

// Transmit forwards the broadcast packet with the given designated set and
// extra payload. As in the simulator a node transmits at most once.
func (c *Core) Transmit(v int, designated, extra []int) {
	if c.st.Sent {
		return
	}
	c.st.Sent = true
	if !c.retire { // else no one reads the view of a node that has decided
		c.st.View.MarkVisited(c.id)
	}
	pkt := c.st.BuildForwardPacket(designated, extra, c.cfg.PiggybackDepth)
	c.st.SetSentPacket(&pkt)
	c.out.Broadcast(pkt)
}

// RandomBackoff draws from this node's private backoff stream. Seeding costs
// more than most waves, and only backoff protocols ever draw.
func (c *Core) RandomBackoff() float64 {
	if c.backoff == nil {
		c.backoff = rand.New(rand.NewSource(c.backoffSeed))
	}
	return c.backoff.Float64() * c.cfg.BackoffWindow
}

// DegreeBackoff returns the FRBD backoff, computed from the node's view
// topology exactly as the simulator does.
func (c *Core) DegreeBackoff(v int) float64 {
	d := c.viewG.Degree(c.id)
	if d == 0 {
		return c.cfg.BackoffWindow
	}
	return c.cfg.BackoffWindow * c.viewG.AverageDegree() / float64(d)
}

// ConservativeHold reports whether this node must refuse non-forward status:
// its view is provably stale (StaleView under dynamic hello maintenance).
func (c *Core) ConservativeHold(v int) bool {
	return c.cfg.StaleView != nil && c.cfg.StaleView(c.id, c.out.Now())
}

// RestoreSent reinstates a previously transmitted forward from durable
// state: the node counts as having sent pkt (so replayed NACK obligations
// can retransmit it and a replayed wave never forwards twice) without
// putting a fresh copy on the air. Executors use it when replaying a
// write-ahead journal after a crash.
func (c *Core) RestoreSent(pkt sim.Packet) {
	c.st.Sent = true
	if !c.retire {
		c.st.View.MarkVisited(c.id)
	}
	c.st.SetSentPacket(&pkt)
}

// Evaluator returns this node's coverage evaluator: the one its executor
// shares between waves, or one of its own, built on first use.
func (c *Core) Evaluator() *core.Evaluator {
	if c.eval == nil {
		c.eval = core.NewEvaluator(c.cfg.N)
	}
	return c.eval
}

// Now returns the current time in time units.
func (c *Core) Now() float64 { return c.out.Now() }

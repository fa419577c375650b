package runtime

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"adhocbcast/internal/core"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/stream"
	"adhocbcast/internal/traffic"
	"adhocbcast/internal/view"
)

// Envelope is the maelstrom-style message wrapper: every frame on the wire is
// one envelope, routed by node name.
type Envelope struct {
	Src  string `json:"src"`
	Dest string `json:"dest"`
	Body Body   `json:"body"`
}

// Body is the union of all message bodies the node speaks. Type selects the
// handler; the remaining fields are per-type (unused ones stay zero and are
// omitted on the wire).
type Body struct {
	Type      string `json:"type"`
	MsgID     int    `json:"msg_id,omitempty"`
	InReplyTo int    `json:"in_reply_to,omitempty"`

	// init
	NodeID  string   `json:"node_id,omitempty"`
	NodeIDs []string `json:"node_ids,omitempty"`
	// topology: the full adjacency by node name. The paper's protocols
	// decide from k-hop local views; in a deployment nodes gather those via
	// hello exchange, here the harness supplies the topology and each node
	// cuts its own local view out of it.
	Topology map[string][]string `json:"topology,omitempty"`

	// broadcast / read / status: Message identifies one broadcast wave.
	Message  *int64  `json:"message,omitempty"`
	Messages []int64 `json:"messages,omitempty"`

	// protocol traffic (pkt, nack, garble)
	From    int         `json:"from,omitempty"`
	Attempt int         `json:"attempt,omitempty"`
	Packet  *sim.Packet `json:"packet,omitempty"`

	// hello: one view-maintenance beacon. Round is the beacon round (1-based;
	// the topology push is round 0), Forwarded the sender's forwarded message
	// ids (the anti-entropy summary receivers repair from).
	Round int `json:"round,omitempty"`

	// peers: a runtime peer-address update (UDP mode), name -> host:port.
	// A restarted node rebinds to a fresh port, so the supervisor pushes
	// updated maps to the survivors.
	Peers map[string]string `json:"peers,omitempty"`

	// status_ok
	Forwarded []int64 `json:"forwarded,omitempty"`
	NACKs     int     `json:"nacks,omitempty"`
	// status_ok crash-recovery state: journal boots observed (restarts =
	// boots-1), journal replays performed, completed rejoins after a
	// restart, counted malformed/oversized frame drops, and whether the
	// node's view is stale right now (forwarding held).
	Boots      int   `json:"boots,omitempty"`
	Replays    int   `json:"replays,omitempty"`
	Rejoins    int   `json:"rejoins,omitempty"`
	FrameDrops int64 `json:"frame_drops,omitempty"`
	Stale      bool  `json:"stale,omitempty"`

	// error
	Code int    `json:"code,omitempty"`
	Text string `json:"text,omitempty"`
}

// maelstrom-compatible error codes.
const (
	errNotSupported = 10
	errMalformed    = 12
)

// Wire is one duplex envelope transport. Recv is called from Node.Run only;
// Send may be called concurrently with Recv but is otherwise confined to the
// node's handler context. Drops reports how many inbound frames the wire
// discarded as malformed (truncated, oversized, or undecodable); a damaged
// frame is counted and skipped, never a hang or a panic.
type Wire interface {
	Recv() (Envelope, error)
	Send(env Envelope) error
	Drops() int64
}

// clock is a node's time source and timer service. A bcastnode process
// reads the wall clock and posts timers to its handler loop (loopClock); a
// Cluster node reads its broadcast's virtual clock and queues timers on it
// (port).
type clock interface {
	// now returns the current time in protocol time units.
	now() float64
	// after runs fn on the node's execution context after d time units.
	// protocol marks a decision timer: a Cluster cancels (and counts) a
	// decision timer whose node is down when it fires, and skips any other
	// timer of a down node.
	after(d float64, protocol bool, fn func())
}

// Node is one live protocol node: a handler around a runtime Core per
// broadcast message, speaking envelopes over a Wire. All protocol state is
// confined to the node's execution context — the handler loop of Run, or the
// event queue of a Cluster.
type Node struct {
	cfg  Config
	wire Wire
	clk  clock
	errl *log.Logger
	// staleVerdict, when non-nil, is the Cluster's pure-hash staleness
	// verdict; a node without one beacons over its wire and judges
	// staleness from what it heard.
	staleVerdict func(v int, now float64) bool

	// the handler loop of Run (NewNode only)
	loop chan func()
	done chan struct{}
	wg   sync.WaitGroup

	name  string
	self  int
	names []string
	index map[string]int
	g     *graph.Graph
	// lv is this node's k-hop view as built, never marked: every wave
	// marks a fresh clone of it.
	lv *view.Local
	// eval is the coverage evaluator all of this node's waves share (and,
	// in a Cluster, all of its nodes).
	eval  *core.Evaluator
	msgID int
	waves map[int64]*wave

	trafficStarted bool

	// crash-recovery state
	journal    *journal
	pendingOps []journalOp // prior-life ops awaiting replay at first topology
	boots      int
	replays    int
	rejoins    int
	// view maintenance
	beaconsStarted bool
	helloRound     int
	lastHeard      map[int]float64 // view-neighbor -> last beacon time (units)
	rejoinPending  bool
	// asked[msg][from] counts anti-entropy NACKs already sent for msg to from
	asked map[int64]map[int]int
}

// NewNode builds a standalone node over the given wire: the wall clock, with
// every handler and timer run on the loop of Run.
func NewNode(cfg Config, w Wire) (*Node, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	n := newNode(cfg, w, nil)
	n.clk = &loopClock{n: n, start: time.Now()}
	// Room for a burst of envelopes and timers while a handler blocks on a
	// slow wire write.
	n.loop = make(chan func(), 64)
	n.done = make(chan struct{})
	return n, nil
}

// newNode builds a node over a normalized cfg; the caller installs its clock.
func newNode(cfg Config, w Wire, staleVerdict func(v int, now float64) bool) *Node {
	return &Node{
		cfg:          cfg,
		wire:         w,
		errl:         log.New(log.Writer(), "bcastnode: ", 0),
		staleVerdict: staleVerdict,
		waves:        make(map[int64]*wave),
		lastHeard:    make(map[int]float64),
		asked:        make(map[int64]map[int]int),
	}
}

// Run reads envelopes until the wire closes, dispatching every message —
// and every timer the protocol sets — onto the single handler loop. It
// returns nil on a clean wire shutdown (EOF or closed socket).
func (n *Node) Run() error {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			select {
			case fn := <-n.loop:
				fn()
			case <-n.done:
				// Drain what the reader enqueued before EOF so one-shot
				// piped input (messages then immediate close) still gets
				// every reply; timers that fire after this are dropped.
				for {
					select {
					case fn := <-n.loop:
						fn()
					default:
						return
					}
				}
			}
		}
	}()
	var rerr error
	for {
		env, err := n.wire.Recv()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				rerr = err
			}
			break
		}
		n.post(func() { n.handle(env) })
	}
	close(n.done)
	n.wg.Wait()
	return rerr
}

// post hands fn to the loop goroutine; it is dropped if the node is shutting
// down.
func (n *Node) post(fn func()) {
	select {
	case n.loop <- fn:
	case <-n.done:
	}
}

// loopClock is a standalone node's clock: wall time since the node was
// built, timers posted to the handler loop.
type loopClock struct {
	n     *Node
	start time.Time
}

func (c *loopClock) now() float64 {
	return float64(time.Since(c.start)) / float64(c.n.cfg.TimeScale)
}

// after posts fn to the loop after d time units. Every timer execution ends
// at a journal durability point, like envelope handlers.
func (c *loopClock) after(d float64, _ bool, fn func()) {
	if wall := d * float64(c.n.cfg.TimeScale); wall < 1<<63 { // else past time.Duration: never fires
		time.AfterFunc(time.Duration(wall), func() {
			c.n.post(func() {
				fn()
				c.n.syncJournal()
			})
		})
	}
}

func (n *Node) now() float64 { return n.clk.now() }

func (n *Node) handle(env Envelope) {
	switch env.Body.Type {
	case "init":
		n.handleInit(env)
	case "topology":
		n.handleTopology(env)
	case "broadcast":
		n.handleBroadcast(env)
	case "read":
		n.handleRead(env)
	case "status":
		n.handleStatus(env)
	case "pkt":
		n.handlePkt(env)
	case "nack":
		n.handleNACK(env)
	case "garble":
		n.handleGarble(env)
	case "hello":
		n.handleHello(env)
	case "peers":
		n.handlePeers(env)
	default:
		n.replyError(env, errNotSupported, fmt.Sprintf("unsupported message type %q", env.Body.Type))
	}
	// One durability point per handled envelope: everything the handler
	// journaled is on disk before the next envelope is processed ("forward"
	// records additionally sync before their datagrams; see wave.Broadcast).
	n.syncJournal()
}

// syncJournal flushes pending journal records; an I/O error here means
// durability is gone, so it is fatal for the journal (logged, journal
// disabled) rather than silently ignored.
func (n *Node) syncJournal() {
	if n.journal == nil {
		return
	}
	if err := n.journal.sync(); err != nil {
		n.errl.Printf("journal sync: %v (journaling disabled)", err)
		n.journal = nil
	}
}

// record appends one journal op (and nothing when journaling is off).
func (n *Node) record(op journalOp) {
	if n.journal == nil {
		return
	}
	if err := n.journal.append(op); err != nil {
		n.errl.Printf("journal append: %v (journaling disabled)", err)
		n.journal = nil
	}
}

func (n *Node) send(dest string, b Body) {
	n.msgID++
	b.MsgID = n.msgID
	if err := n.wire.Send(Envelope{Src: n.name, Dest: dest, Body: b}); err != nil {
		n.errl.Printf("send to %s: %v", dest, err)
	}
}

func (n *Node) reply(env Envelope, b Body) {
	b.InReplyTo = env.Body.MsgID
	n.send(env.Src, b)
}

func (n *Node) replyError(env Envelope, code int, text string) {
	n.reply(env, Body{Type: "error", Code: code, Text: text})
}

func (n *Node) handleInit(env Envelope) {
	b := env.Body
	n.names = b.NodeIDs
	n.index = make(map[string]int, len(b.NodeIDs))
	for i, name := range b.NodeIDs {
		n.index[name] = i
	}
	self, ok := n.index[b.NodeID]
	if !ok {
		n.replyError(env, errMalformed, fmt.Sprintf("node_id %q not in node_ids", b.NodeID))
		return
	}
	n.name = b.NodeID
	n.self = self
	if n.cfg.JournalDir != "" && n.journal == nil {
		j, ops, boots, err := openJournal(filepath.Join(n.cfg.JournalDir, n.name+".journal"))
		if err != nil {
			n.replyError(env, errMalformed, fmt.Sprintf("journal: %v", err))
			return
		}
		n.journal = j
		n.pendingOps = ops
		n.boots = boots
	}
	n.reply(env, Body{Type: "init_ok"})
}

func (n *Node) handleTopology(env Envelope) {
	if n.name == "" {
		n.replyError(env, errMalformed, "topology before init")
		return
	}
	var links [][2]int
	for name, nbrs := range env.Body.Topology {
		u, ok := n.index[name]
		if !ok {
			n.replyError(env, errMalformed, fmt.Sprintf("unknown node %q in topology", name))
			return
		}
		for _, nb := range nbrs {
			v, ok := n.index[nb]
			if !ok {
				n.replyError(env, errMalformed, fmt.Sprintf("unknown neighbor %q of %q", nb, name))
				return
			}
			links = append(links, [2]int{min(u, v), max(u, v)})
		}
	}
	// A link may be listed from both of its ends.
	slices.SortFunc(links, func(a, b [2]int) int { return cmp.Or(a[0]-b[0], a[1]-b[1]) })
	g, err := graph.FromEdges(len(n.names), slices.Compact(links))
	if err != nil {
		n.replyError(env, errMalformed, err.Error())
		return
	}
	n.install(g, view.NewLocal(g, n.self, n.cfg.Hops, view.BasePriorities(g, n.cfg.Metric)))
	n.reply(env, Body{Type: "topology_ok"})
	n.startTraffic()
	n.startBeacons()
}

// install puts the node on topology g with its k-hop view lv over g. Topology
// changes reset all broadcast state: views were cut from the old graph.
func (n *Node) install(g *graph.Graph, lv *view.Local) {
	n.g, n.lv = g, lv
	clear(n.waves)
	if len(n.pendingOps) > 0 {
		// First topology after a restart: replay the journal into fresh
		// cores. A first-boot node has no prior ops and skips this.
		n.replayJournal(n.pendingOps)
		n.pendingOps = nil
		n.replays++
	}
	if n.beacons() {
		if n.boots > 1 {
			// Rejoin protocol: a restarted node trusts nothing about its
			// neighborhood until every view-neighbor beacons — its staleness
			// clocks start empty, so the conservative fallback holds its
			// forwarding until the view is confirmed fresh.
			n.lastHeard = make(map[int]float64)
			n.rejoinPending = true
		} else {
			// The topology push is beacon round 0: every view-neighbor
			// counts as just heard (the sim models round 0 as always
			// received).
			now := n.now()
			n.g.ForEachNeighbor(n.self, func(u int) { n.lastHeard[u] = now })
		}
	}
}

// peer reports whether i names a node of the configured network: peer ids
// arrive in envelopes and journal records, and index the name table.
func (n *Node) peer(i int) bool { return i >= 0 && i < len(n.names) }

// replayJournal rebuilds broadcast state from a prior life's journal: sent
// packets are restored first (so nothing replays into a duplicate forward),
// then source starts, deliveries, and unmet NACK obligations re-run through
// the ordinary engine entry points — a node that crashed before a forwarding
// decision re-decides it, one that crashed after honors it. A forward record
// that lost its packet still counts as a forward; records naming an unknown
// peer are skipped.
func (n *Node) replayJournal(ops []journalOp) {
	for _, op := range ops {
		if op.Op == "forward" {
			var pkt sim.Packet
			if op.Packet != nil {
				pkt = *op.Packet
			}
			n.wave(op.Msg).core.RestoreSent(pkt)
		}
	}
	type obligation struct {
		msg           int64
		from, attempt int
	}
	pending := make(map[obligation]int)
	for _, op := range ops {
		switch op.Op {
		case "source":
			w := n.wave(op.Msg)
			if !w.core.Delivered() {
				w.core.Start()
			}
		case "deliver":
			if op.Packet != nil && n.peer(op.From) {
				n.wave(op.Msg).core.HandlePacket(op.From, *op.Packet, n.now())
			}
		case "nack":
			pending[obligation{op.Msg, op.From, op.Attempt}]++
		case "nack_done":
			pending[obligation{op.Msg, op.From, op.Attempt}]--
		}
	}
	for ob, count := range pending {
		if !n.peer(ob.from) {
			continue
		}
		for i := 0; i < count; i++ {
			n.wave(ob.msg).core.HandleNACK(ob.from, ob.attempt)
		}
	}
}

// beacons reports whether this node maintains its view by beaconing over the
// wire (dynamic hello on, and no staleness verdict handed in by a Cluster).
func (n *Node) beacons() bool { return n.cfg.DynamicHello != nil && n.staleVerdict == nil }

// staleView reports whether this node's view is provably stale — the core's
// conservative-hold hook. Under a Cluster it is the pure-hash verdict; a
// beaconing node's view is stale when some view-neighbor has not beaconed
// within the expiry (a restarted node starts with empty clocks, so it is
// stale until every view-neighbor confirms).
func (n *Node) staleView(v int, now float64) bool {
	if n.staleVerdict != nil {
		return n.staleVerdict(v, now)
	}
	if !n.beacons() || n.g == nil {
		return false
	}
	for _, u := range n.g.Neighbors(n.self) {
		if at, heard := n.lastHeard[u]; !heard || now-at > n.cfg.DynamicHello.Expiry {
			return true
		}
	}
	return false
}

// startBeacons arms the periodic hello beacon on the first topology.
func (n *Node) startBeacons() {
	if !n.beacons() || n.beaconsStarted {
		return
	}
	n.beaconsStarted = true
	n.scheduleBeacon()
}

func (n *Node) scheduleBeacon() {
	n.clk.after(n.cfg.DynamicHello.Interval, false, func() {
		n.helloRound++
		n.sendBeacon(n.helloRound)
		n.scheduleBeacon()
	})
}

// sendBeacon broadcasts one hello to every true neighbor, carrying this
// node's forwarded message ids as the anti-entropy summary.
func (n *Node) sendBeacon(round int) {
	fwd := n.messages((*Core).Forwarded)
	n.g.ForEachNeighbor(n.self, func(u int) {
		n.send(n.names[u], Body{Type: "hello", From: n.self, Round: round, Forwarded: fwd})
	})
}

// handleHello processes one beacon: seeded loss, staleness-clock refresh,
// rejoin completion, and anti-entropy repair — any advertised forward this
// node has not delivered is NACKed back to the sender, which retransmits
// from its (journal-restored) sent packet. That is how a node that was dead
// during a wave recovers it.
func (n *Node) handleHello(env Envelope) {
	if n.g == nil || !n.beacons() {
		return
	}
	from := env.Body.From
	if !n.peer(from) {
		return
	}
	if !n.cfg.DynamicHello.Received(n.self, from, env.Body.Round) {
		return // seeded beacon loss (no-op unless the loss rate is set)
	}
	n.lastHeard[from] = n.now()
	if n.rejoinPending && !n.staleView(n.self, n.now()) {
		n.rejoinPending = false
		n.rejoins++
	}
	if !n.cfg.NACKRecovery {
		return
	}
	for _, m := range env.Body.Forwarded {
		w := n.wave(m)
		if w.core.Delivered() {
			continue
		}
		byFrom := n.asked[m]
		if byFrom == nil {
			byFrom = make(map[int]int)
			n.asked[m] = byFrom
		}
		if byFrom[from] >= n.cfg.RetryBudget {
			continue
		}
		byFrom[from]++
		w.nacks++ // status counts anti-entropy requests with recovery NACKs
		w.NACK(from, byFrom[from])
	}
}

// handlePeers applies a runtime peer-address update to a wire whose address
// book can be rewired (bcastnode's UDP wire; a no-op on other wires, whose
// routing is the harness's job). It is how a chaos supervisor tells
// surviving nodes about a restarted peer's new port.
func (n *Node) handlePeers(env Envelope) {
	if pw, ok := n.wire.(interface{ UpdatePeers(map[string]string) error }); ok {
		if err := pw.UpdatePeers(env.Body.Peers); err != nil {
			n.replyError(env, errMalformed, err.Error())
			return
		}
	}
	n.reply(env, Body{Type: "peers_ok"})
}

// trafficMessageID tags node-generated broadcast waves: arrival seq of node
// self maps to a message id at or above 1<<32, so self-injected waves never
// collide with harness-injected messages (which stay below 2^32 in practice).
func trafficMessageID(self, seq int) int64 {
	return int64(self+1)<<32 | int64(seq)
}

// startTraffic arms the node's traffic generator on the first configured
// topology: it expands the shared deterministic plan, keeps only its own
// arrivals, and schedules each as a self-originated broadcast wave. Later
// topology changes do not re-arm it — pending timers keep firing and start
// their waves on whatever topology is current.
func (n *Node) startTraffic() {
	if n.cfg.Rate <= 0 || n.trafficStarted {
		return
	}
	n.trafficStarted = true
	plan, err := traffic.Poisson(traffic.Config{
		N:       len(n.names),
		Sources: len(n.names),
		Rate:    n.cfg.Rate,
		Horizon: n.cfg.TrafficHorizon,
		Seed:    n.cfg.Seed,
	})
	if err != nil {
		n.errl.Printf("traffic generator: %v", err)
		return
	}
	seq := 0
	for _, m := range plan.Messages {
		if m.Source != n.self {
			continue
		}
		msg := trafficMessageID(n.self, seq)
		seq++
		n.clk.after(m.At, false, func() {
			w := n.wave(msg)
			if !w.core.Delivered() {
				n.record(journalOp{Op: "source", Msg: msg})
				w.core.Start()
			}
		})
	}
}

// wave returns (building on first use) the state of one broadcast message
// at this node.
func (n *Node) wave(msg int64) *wave {
	if w, ok := n.waves[msg]; ok {
		return w
	}
	w := &wave{n: n, msg: msg}
	w.core = NewCore(n.self, n.cfg.Protocol(), n.lv.CloneFresh(), n.g, CoreConfig{
		N:              len(n.names),
		PiggybackDepth: n.cfg.PiggybackDepth,
		BackoffWindow:  n.cfg.BackoffWindow,
		TransmitDelay:  n.cfg.TransmitDelay,
		NACKRecovery:   n.cfg.NACKRecovery,
		RetryBudget:    n.cfg.RetryBudget,
		NACKDelay:      n.cfg.NACKDelay,
		RetryBackoff:   n.cfg.RetryBackoff,
		JitterFrac:     n.cfg.Nemesis.JitterFrac,
		StaleView:      n.staleView,
	}, w, stream.Seed(n.cfg.Seed, "bcastnode.backoff", n.self, int(msg)))
	if n.eval == nil {
		n.eval = new(core.Evaluator)
	}
	w.core.eval = n.eval
	w.core.Init()
	n.waves[msg] = w
	return w
}

// ready guards handlers that need a configured topology and a message id,
// and for protocol traffic a known sending peer.
func (n *Node) ready(env Envelope, fromPeer bool) bool {
	switch {
	case n.g == nil:
		n.replyError(env, errMalformed, "no topology configured")
	case env.Body.Message == nil:
		n.replyError(env, errMalformed, fmt.Sprintf("%s without message", env.Body.Type))
	case fromPeer && !n.peer(env.Body.From):
		n.replyError(env, errMalformed, fmt.Sprintf("%s from unknown node %d", env.Body.Type, env.Body.From))
	default:
		return true
	}
	return false
}

func (n *Node) handleBroadcast(env Envelope) {
	if !n.ready(env, false) {
		return
	}
	w := n.wave(*env.Body.Message)
	if !w.core.Delivered() {
		n.record(journalOp{Op: "source", Msg: w.msg})
		w.core.Start()
	}
	n.reply(env, Body{Type: "broadcast_ok"})
}

func (n *Node) handlePkt(env Envelope) {
	if !n.ready(env, true) {
		return
	}
	if env.Body.Packet == nil {
		n.replyError(env, errMalformed, "pkt without packet")
		return
	}
	w := n.wave(*env.Body.Message)
	// Journal every receipt before processing it — duplicates included,
	// because pruning protocols decide from the full receipt log. If the
	// process dies mid-decision, replay re-runs the receipts and re-decides.
	n.record(journalOp{Op: "deliver", Msg: w.msg, From: env.Body.From, Packet: env.Body.Packet})
	w.core.HandlePacket(env.Body.From, *env.Body.Packet, n.now())
}

func (n *Node) handleNACK(env Envelope) {
	if !n.ready(env, true) {
		return
	}
	// The obligation is journaled before it is honored: a node killed
	// between NACK receipt and retransmit replays it after restart.
	n.record(journalOp{Op: "nack", Msg: *env.Body.Message, From: env.Body.From, Attempt: env.Body.Attempt})
	n.wave(*env.Body.Message).core.HandleNACK(env.Body.From, env.Body.Attempt)
}

// handleGarble reports a detectable drop to the recovery layer: the node
// overheard attempt `attempt` from `from` but could not decode it. A real
// radio would raise this itself; over a process wire the harness (or a
// relaying proxy) injects it when it drops a pkt, and a Cluster's wire does
// so for every detectable drop.
func (n *Node) handleGarble(env Envelope) {
	if !n.ready(env, true) {
		return
	}
	n.wave(*env.Body.Message).core.HandleGarble(env.Body.From, env.Body.Attempt)
}

// messages returns the sorted ids of the messages whose core satisfies keep.
func (n *Node) messages(keep func(*Core) bool) []int64 {
	var ids []int64
	for m, w := range n.waves {
		if keep(w.core) {
			ids = append(ids, m)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (n *Node) handleRead(env Envelope) {
	n.reply(env, Body{Type: "read_ok", Messages: n.messages((*Core).Delivered)})
}

func (n *Node) handleStatus(env Envelope) {
	b := Body{
		Type:       "status_ok",
		Messages:   n.messages((*Core).Delivered),
		Forwarded:  n.messages((*Core).Forwarded),
		Boots:      n.boots,
		Replays:    n.replays,
		Rejoins:    n.rejoins,
		FrameDrops: n.wire.Drops(),
		Stale:      n.staleView(n.self, n.now()),
	}
	for _, w := range n.waves {
		b.NACKs += w.nacks
	}
	n.reply(env, b)
}

// wave is one broadcast message at one node: its runtime Core, and the
// counters the Core's accounting hooks fill (a Cluster folds them into the
// broadcast's sim.Result). It is the Core's Transport: engine actions become
// envelopes on the node's wire and timers on the node's clock.
type wave struct {
	n    *Node
	msg  int64
	core *Core

	nacks       int
	retransmits int
	// firstAt is the first delivery time (0 at the source), forwardAt the
	// node's transmission time, finish the latest of all its events.
	firstAt, forwardAt, finish float64
}

func (w *wave) Broadcast(pkt sim.Packet) {
	n := w.n
	// Write-ahead: the forward record is durable before any datagram leaves,
	// so a crash in between replays as "already forwarded" — never twice on
	// the air. The copies themselves are repaired by anti-entropy beacons.
	n.record(journalOp{Op: "forward", Msg: w.msg, Packet: &pkt})
	n.syncJournal()
	w.forwardAt = n.now()
	w.finish = max(w.finish, w.forwardAt)
	n.g.ForEachNeighbor(n.self, func(u int) {
		n.send(n.names[u], Body{Type: "pkt", From: n.self, Message: &w.msg, Packet: &pkt})
	})
}

func (w *wave) Unicast(to int, pkt sim.Packet, attempt int) {
	n := w.n
	w.retransmits++
	n.record(journalOp{Op: "nack_done", Msg: w.msg, From: to, Attempt: attempt})
	n.send(n.names[to], Body{Type: "pkt", From: n.self, Attempt: attempt, Message: &w.msg, Packet: &pkt})
}

func (w *wave) NACK(to int, attempt int) {
	w.n.send(w.n.names[to], Body{Type: "nack", From: w.n.self, Attempt: attempt, Message: &w.msg})
}

func (w *wave) AfterTimer(d float64, fn func())    { w.n.clk.after(d, true, fn) }
func (w *wave) AfterRecovery(d float64, fn func()) { w.n.clk.after(d, false, fn) }

func (w *wave) Now() float64 { return w.n.now() }

func (w *wave) NoteDeliver(first bool, at float64) {
	if first {
		w.firstAt = at
	}
	w.finish = max(w.finish, at)
}

func (w *wave) NoteNACK() { w.nacks++ }

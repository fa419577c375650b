package runtime

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"adhocbcast/internal/fault"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/view"
)

// Cluster is an in-process live network: one goroutine per node, channel
// inboxes as radios, wall-clock timers scaled by Config.TimeScale. A Cluster
// is built once per topology and runs any number of broadcasts; local views
// are built once and status-reset between broadcasts. Broadcasts run one at
// a time per Cluster.
type Cluster struct {
	g     *graph.Graph
	cfg   Config
	views []*view.Local
	// viewGs[v] is the topology node v's view was built from (one shared
	// graph unless NodeViews is set).
	viewGs []*graph.Graph
	bcast  int // broadcasts started, keys per-broadcast RNG streams
	// lastDelivered records per-node delivery of the most recent broadcast
	// (sim.Result only carries counts; invariant checks need the set).
	lastDelivered []bool
}

// New builds a live cluster over g. View construction (the expensive part)
// happens here, once.
func New(g *graph.Graph, cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := g.N()
	cl := &Cluster{
		g:      g,
		cfg:    cfg,
		views:  make([]*view.Local, n),
		viewGs: make([]*graph.Graph, n),
	}
	if cfg.NodeViews != nil {
		for v := 0; v < n; v++ {
			gv := cfg.NodeViews(v)
			if gv == nil {
				return nil, fmt.Errorf("runtime: NodeViews returned nil for node %d", v)
			}
			if gv.N() != n {
				return nil, fmt.Errorf("runtime: node %d view has %d nodes, network has %d", v, gv.N(), n)
			}
			base := view.BasePriorities(gv, cfg.Metric)
			cl.views[v] = view.NewLocal(gv, v, cfg.Hops, base)
			cl.viewGs[v] = gv
		}
		return cl, nil
	}
	base := view.BasePriorities(g, cfg.Metric)
	for v := 0; v < n; v++ {
		cl.views[v] = view.NewLocal(g, v, cfg.Hops, base)
		cl.viewGs[v] = g
	}
	return cl, nil
}

// N returns the network size.
func (cl *Cluster) N() int { return cl.g.N() }

// staleView is the CoreConfig.StaleView hook under dynamic hello maintenance
// (nil method value never installed when DynamicHello is off — the hook
// checks itself). A node's view is stale at time now when some view-neighbor
// is past its beacon expiry, with the beacon loss schedule evaluated as the
// pure hash the simulator uses, so seed-matched runs agree on every verdict.
func (cl *Cluster) staleView(v int, now float64) bool {
	d := cl.cfg.DynamicHello
	return d != nil && d.ViewStale(cl.viewGs[v], v, now)
}

// DeliveredNodes returns the per-node delivery outcome of the most recent
// broadcast (nil before the first). The slice is owned by the cluster and
// valid until the next Broadcast.
func (cl *Cluster) DeliveredNodes() []bool { return cl.lastDelivered }

// message kinds determine how a node's loop treats an inbox entry when the
// node is down at processing time.
type msgKind int

const (
	// msgEvent entries (packet deliveries, garbles, NACK arrivals, the
	// source kick) had their down checks at arrival time, in the scheduling
	// layer; the loop runs them unconditionally.
	msgEvent msgKind = iota
	// msgTimer entries are protocol decision timers: cancelled and counted
	// if the node is down when they fire, mirroring the simulator.
	msgTimer
	// msgRecovery entries are recovery-layer bookkeeping: silently skipped
	// if the node is down when they fire (a down node's recovery state is
	// soft state).
	msgRecovery
)

type msg struct {
	kind msgKind
	fn   func()
}

// lnode is one live node: its inbox loop, its protocol core, and its
// per-neighbor nemesis RNG streams. lnode implements Transport for its Core.
type lnode struct {
	r    *run
	core *Core
	// inbox serializes every entry point (deliveries, timers, recovery)
	// onto the node's goroutine; the Core is lock-free because of it.
	inbox   chan msg
	stopped chan struct{}
	// linkRngs[i] drives the nemesis draws of the directed link to the
	// i-th true neighbor (drawn only on this node's goroutine).
	linkRngs []*rand.Rand
	// dispatchDown is the node's down verdict for the message being handled,
	// evaluated once at dispatch exactly like the simulator evaluates
	// down-ness once per event: a copy that passed its up-at-arrival check
	// is processed fully (including the transmit it triggers) even if the
	// node's churn window opens microseconds into the handler. Only touched
	// on the node's loop goroutine.
	dispatchDown bool
}

// run is the state of one live broadcast.
type run struct {
	cl    *Cluster
	plan  *fault.Plan
	nodes []*lnode
	t0    time.Time
	// inflight tracks every scheduled-but-unprocessed action (pending
	// timer, copy in flight, queued inbox entry). The broadcast has
	// quiesced when it drains; handlers schedule follow-ups before
	// releasing their own slot, so the counter never touches zero early.
	inflight sync.WaitGroup

	mu              sync.Mutex
	forward         []forwardEvent
	finish          float64
	receipts        int
	copies          int
	lost            int
	droppedNodeDown int
	droppedLinkDown int
	timersCancelled int
	nacks           int
	retransmits     int
	nonForwards     int
}

type forwardEvent struct {
	node int
	at   float64
}

// now returns the run clock in time units.
func (r *run) now() float64 {
	return float64(time.Since(r.t0)) / float64(r.cl.cfg.TimeScale)
}

// wall converts d time units to a wall-clock duration.
func (r *run) wall(d float64) time.Duration {
	if d < 0 {
		d = 0
	}
	return time.Duration(d * float64(r.cl.cfg.TimeScale))
}

func (r *run) downNode(v int, t float64) bool {
	return r.plan != nil && r.plan.NodeDownAt(v, t)
}

func (r *run) downLink(u, v int, t float64) bool {
	return r.plan != nil && r.plan.LinkDownAt(u, v, t)
}

func (r *run) count(c *int) {
	r.mu.Lock()
	*c++
	r.mu.Unlock()
}

// note updates the finish clock under the run lock.
func (r *run) note(at float64) {
	if at > r.finish {
		r.finish = at
	}
}

// loop is the node's goroutine: it serializes all handler execution.
func (n *lnode) loop() {
	for {
		select {
		case m := <-n.inbox:
			n.handle(m)
		case <-n.stopped:
			return
		}
	}
}

func (n *lnode) handle(m msg) {
	defer n.r.inflight.Done()
	switch m.kind {
	case msgTimer:
		if n.r.downNode(n.core.ID(), n.r.now()) {
			n.r.count(&n.r.timersCancelled)
			return
		}
		n.dispatchDown = false
	case msgRecovery:
		if n.r.downNode(n.core.ID(), n.r.now()) {
			return
		}
		n.dispatchDown = false
	default:
		// Event messages (deliveries, garbles, NACK arrivals) had their
		// down check at arrival time in the scheduling layer; the verdict
		// holds for the whole dispatch.
		n.dispatchDown = false
	}
	m.fn()
}

// post enqueues an inbox entry, releasing its inflight slot if the run has
// already been torn down (deadline abort).
func (n *lnode) post(m msg) {
	select {
	case n.inbox <- m:
	case <-n.stopped:
		n.r.inflight.Done()
	}
}

// schedule runs fn on the node's loop after d time units.
func (n *lnode) schedule(kind msgKind, d float64, fn func()) {
	n.r.inflight.Add(1)
	time.AfterFunc(n.r.wall(d), func() { n.post(msg{kind: kind, fn: fn}) })
}

// --- Transport ---

var _ Transport = (*lnode)(nil)

func (n *lnode) Now() float64 { return n.r.now() }

// Down reports the down verdict of the current dispatch (see dispatchDown):
// a handler that is running was up when its trigger was checked, and keeps
// that status for its duration.
func (n *lnode) Down() bool { return n.dispatchDown }

func (n *lnode) AfterTimer(d float64, fn func()) { n.schedule(msgTimer, d, fn) }

func (n *lnode) AfterRecovery(d float64, fn func()) { n.schedule(msgRecovery, d, fn) }

// Broadcast radios one copy to every true neighbor through the nemesis.
func (n *lnode) Broadcast(pkt sim.Packet) {
	r := n.r
	v := n.core.ID()
	at := r.now()
	r.mu.Lock()
	r.forward = append(r.forward, forwardEvent{node: v, at: at})
	if m := r.cl.cfg.Metrics; m != nil {
		m.ForwardSet.Observe(float64(len(pkt.SenderDesignated())))
	}
	r.note(at)
	r.mu.Unlock()
	r.cl.g.ForEachNeighbor(v, func(u int) {
		n.sendCopy(u, pkt, 0)
	})
}

// Unicast sends one recovery retransmission copy, subject to the same
// nemesis as any other copy.
func (n *lnode) Unicast(to int, pkt sim.Packet, attempt int) {
	n.r.count(&n.r.retransmits)
	n.sendCopy(to, pkt, attempt)
}

// NACK delivers a recovery request to the original sender over the control
// channel: reliable and immediate (the detection-plus-transit delay was
// already spent on the receiver side), but dropped if the sender is down at
// arrival — then the receiver-driven re-request keeps the chain alive. The
// handoff goes through a timer goroutine so node loops never block on each
// other's inboxes.
func (n *lnode) NACK(to int, attempt int) {
	r := n.r
	from := n.core.ID()
	tgt := r.nodes[to]
	r.inflight.Add(1)
	time.AfterFunc(0, func() {
		if r.downNode(to, r.now()) {
			r.inflight.Done()
			return
		}
		tgt.post(msg{kind: msgRecovery, fn: func() {
			tgt.core.HandleNACK(from, attempt)
		}})
	})
}

func (n *lnode) NoteDeliver(first bool, at float64) {
	r := n.r
	r.mu.Lock()
	r.receipts++
	if first {
		if m := r.cl.cfg.Metrics; m != nil {
			m.Latency.Observe(at)
		}
	}
	r.note(at)
	r.mu.Unlock()
}

func (n *lnode) NoteSource() {
	r := n.r
	r.mu.Lock()
	if m := r.cl.cfg.Metrics; m != nil {
		m.Latency.Observe(0)
	}
	r.mu.Unlock()
}

func (n *lnode) NoteNACK() { n.r.count(&n.r.nacks) }

func (n *lnode) NoteNonForward() { n.r.count(&n.r.nonForwards) }

// linkRNG returns the nemesis stream of the directed link to neighbor `to`.
func (n *lnode) linkRNG(to int) *rand.Rand {
	nbrs := n.r.cl.g.Neighbors(n.core.ID())
	i := sort.SearchInts(nbrs, to)
	return n.linkRngs[i]
}

// sendCopy pushes one copy onto the directed link, applying the nemesis:
// jitter on the delivery delay, Bernoulli drop and duplication, and the
// fault plan's node/link outages at arrival time. Runs on the sender's
// goroutine, so the link's RNG draws are ordered by the sender's send order.
func (n *lnode) sendCopy(to int, pkt sim.Packet, attempt int) {
	r := n.r
	cfg := &r.cl.cfg
	lr := n.linkRNG(to)
	delay := cfg.TransmitDelay
	if cfg.Nemesis.JitterFrac > 0 {
		delay += lr.Float64() * cfg.Nemesis.JitterFrac * cfg.TransmitDelay
	}
	drop := cfg.Nemesis.DropRate > 0 && lr.Float64() < cfg.Nemesis.DropRate
	n.deliverCopy(to, pkt, attempt, delay, drop)
	if cfg.Nemesis.DupRate > 0 && lr.Float64() < cfg.Nemesis.DupRate {
		// The duplicate trails the original by up to one transmit delay,
		// so it usually arrives after other traffic has interleaved.
		n.deliverCopy(to, pkt, attempt, delay+lr.Float64()*cfg.TransmitDelay, false)
	}
}

// deliverCopy schedules one copy's arrival and resolves its fate at arrival
// time, exactly as the simulator's dispatch does: receiver down → silent
// drop; link down → drop, detectable if the nemesis says so; nemesis drop →
// garble (detectable when recovery is on); otherwise delivery.
func (n *lnode) deliverCopy(to int, pkt sim.Packet, attempt int, delay float64, drop bool) {
	r := n.r
	from := n.core.ID()
	r.count(&r.copies)
	r.inflight.Add(1)
	time.AfterFunc(r.wall(delay), func() {
		at := r.now()
		tgt := r.nodes[to]
		switch {
		case r.downNode(to, at):
			r.count(&r.droppedNodeDown)
			r.inflight.Done()
		case r.downLink(from, to, at):
			r.count(&r.droppedLinkDown)
			if r.cl.cfg.Nemesis.DetectablePartitions && r.cl.cfg.NACKRecovery {
				tgt.post(msg{kind: msgEvent, fn: func() {
					tgt.core.HandleGarble(from, attempt)
				}})
			} else {
				r.inflight.Done()
			}
		case drop:
			r.count(&r.lost)
			if r.cl.cfg.NACKRecovery {
				tgt.post(msg{kind: msgEvent, fn: func() {
					tgt.core.HandleGarble(from, attempt)
				}})
			} else {
				r.inflight.Done()
			}
		default:
			tgt.post(msg{kind: msgEvent, fn: func() {
				tgt.core.HandlePacket(from, pkt, at)
			}})
		}
	})
}

// Broadcast runs one live broadcast from source under the given fault plan
// (nil for none) and returns a result in the simulator's format. It blocks
// until the network has quiesced: no copy in flight, no timer pending, no
// recovery chain alive. A broadcast that has not quiesced within
// Config.Deadline time units returns an error.
func (cl *Cluster) Broadcast(source int, plan *fault.Plan) (sim.Result, error) {
	n := cl.g.N()
	if source < 0 || source >= n {
		return sim.Result{}, fmt.Errorf("runtime: source %d out of range [0,%d)", source, n)
	}
	if plan != nil {
		if err := plan.Validate(n); err != nil {
			return sim.Result{}, fmt.Errorf("runtime: invalid fault plan: %w", err)
		}
	}
	if m := cl.cfg.Metrics; m != nil {
		m.Reset()
	}
	bcast := cl.bcast
	cl.bcast++

	r := &run{cl: cl, plan: plan, nodes: make([]*lnode, n)}
	for v := 0; v < n; v++ {
		lv := cl.views[v]
		lv.ResetStatus()
		ln := &lnode{
			r:       r,
			inbox:   make(chan msg, 64),
			stopped: make(chan struct{}),
		}
		ln.core = NewCore(v, cl.cfg.Protocol(), lv, cl.viewGs[v], CoreConfig{
			N:                    n,
			PiggybackDepth:       cl.cfg.PiggybackDepth,
			BackoffWindow:        cl.cfg.BackoffWindow,
			TransmitDelay:        cl.cfg.TransmitDelay,
			NACKRecovery:         cl.cfg.NACKRecovery,
			RetryBudget:          cl.cfg.RetryBudget,
			NACKDelay:            cl.cfg.NACKDelay,
			RetryBackoff:         cl.cfg.RetryBackoff,
			JitterFrac:           cl.cfg.Nemesis.JitterFrac,
			ConservativeFallback: cl.cfg.ConservativeFallback,
			ViewIncomplete:       cl.cfg.ViewIncomplete,
			StaleView:            cl.staleView,
		}, ln, streamSeed(cl.cfg.Seed, "live.backoff", bcast, v))
		nbrs := cl.g.Neighbors(v)
		ln.linkRngs = make([]*rand.Rand, len(nbrs))
		for i, u := range nbrs {
			ln.linkRngs[i] = rand.New(rand.NewSource(
				streamSeed(cl.cfg.Seed, "live.link", bcast, v, u)))
		}
		r.nodes[v] = ln
	}
	// Init every core before any goroutine starts: single-threaded, so
	// static protocols can precompute without racing traffic.
	for _, ln := range r.nodes {
		ln.core.Init()
	}
	for _, ln := range r.nodes {
		go ln.loop()
	}

	// The clock starts now; the source kick is the first inbox entry.
	r.t0 = time.Now()
	src := r.nodes[source]
	r.inflight.Add(1)
	src.post(msg{kind: msgEvent, fn: src.core.Start})

	done := make(chan struct{})
	go func() {
		r.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(r.wall(cl.cfg.Deadline)):
		for _, ln := range r.nodes {
			close(ln.stopped)
		}
		return sim.Result{}, fmt.Errorf("runtime: broadcast from %d did not quiesce within %v time units",
			source, cl.cfg.Deadline)
	}
	for _, ln := range r.nodes {
		close(ln.stopped)
	}
	return r.result(source), nil
}

// result assembles the simulator-format outcome of a quiesced run. The
// inflight.Wait in Broadcast ordered every node-goroutine write before this
// read.
func (r *run) result(source int) sim.Result {
	cl := r.cl
	n := cl.g.N()
	// Forward order: live transmissions are only partially ordered, so sort
	// by timestamp (ties by node id) to get the simulator's deterministic
	// presentation.
	sort.Slice(r.forward, func(i, j int) bool {
		if r.forward[i].at != r.forward[j].at {
			return r.forward[i].at < r.forward[j].at
		}
		return r.forward[i].node < r.forward[j].node
	})
	res := sim.Result{
		N:               n,
		Finish:          r.finish,
		Receipts:        r.receipts,
		Copies:          r.copies,
		Lost:            r.lost,
		DroppedNodeDown: r.droppedNodeDown,
		DroppedLinkDown: r.droppedLinkDown,
		TimersCancelled: r.timersCancelled,
		NACKs:           r.nacks,
		Retransmits:     r.retransmits,
	}
	res.Forward = make([]int, len(r.forward))
	for i, f := range r.forward {
		res.Forward[i] = f.node
	}
	cl.lastDelivered = make([]bool, n)
	for v, ln := range r.nodes {
		if ln.core.Delivered() {
			res.Delivered++
			cl.lastDelivered[v] = true
		}
	}
	if r.plan == nil {
		res.Reachable = n
		res.DeliveredReachable = res.Delivered
	} else {
		reach := r.plan.ReachableFrom(cl.g, source)
		for v, ok := range reach {
			if !ok {
				continue
			}
			res.Reachable++
			if r.nodes[v].core.Delivered() {
				res.DeliveredReachable++
			}
		}
	}
	if m := cl.cfg.Metrics; m != nil {
		res.FillRecord(m)
		if cl.cfg.ViewIncomplete != nil {
			for v := 0; v < res.N; v++ {
				if cl.cfg.ViewIncomplete(v) {
					m.ViewIncompleteNodes++
				}
			}
		}
		if d := cl.cfg.DynamicHello; d != nil {
			// Same pure computation as the simulator's result(): nodes whose
			// view went stale at any point up to the finish clock.
			for v := 0; v < res.N; v++ {
				if d.ViewEverStale(cl.viewGs[v], v, res.Finish) {
					m.StaleViewHolds++
				}
			}
		}
	}
	return res
}

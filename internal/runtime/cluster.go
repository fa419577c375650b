package runtime

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sort"
	"strconv"

	"adhocbcast/internal/core"
	"adhocbcast/internal/fault"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/stream"
	"adhocbcast/internal/view"
)

// Cluster is an in-process live network: n Nodes over an in-memory wire and
// one virtual clock. The wire passes envelope values (no codec) through the
// nemesis and the fault plan; the clock is a queue of the run's scheduled
// actions — copies in flight, timers — popped in (time, seq) order, one at a
// time, so every node's handlers run sequentially and a broadcast is a pure
// function of the topology, the seed and the fault plan. A Cluster is built
// once per topology and runs any number of broadcasts, one at a time.
type Cluster struct {
	g     *graph.Graph
	cfg   Config
	nodes []*Node
	r     *run  // the current broadcast
	msg   int64 // broadcasts started: the message id of the latest
	// lastDelivered records per-node delivery of the most recent broadcast
	// (sim.Result only carries counts; invariant checks need the set).
	lastDelivered []bool
}

// New builds a live cluster over g: one Node per vertex. The nodes share one
// name table, the graph g itself (a graph never changes once built, so
// sharing it needs no copy and no lock), one set of k-hop views built in one
// pass on every core, and one coverage evaluator, so setup costs what the
// simulator's does.
func New(g *graph.Graph, cfg Config) (*Cluster, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if cfg.Rate != 0 || cfg.JournalDir != "" {
		return nil, fmt.Errorf("runtime: Rate and JournalDir configure a bcastnode deployment, not a Cluster")
	}
	n := g.N()
	cl := &Cluster{
		g:     g,
		cfg:   cfg,
		nodes: make([]*Node, n),
	}
	names, index := make([]string, n), make(map[string]int, n)
	for v := range names {
		names[v] = "n" + strconv.Itoa(v)
		index[names[v]] = v
	}
	var views view.Set
	view.NewBuilder().BuildAll(&views, g, cfg.Hops, cfg.Metric, goruntime.GOMAXPROCS(0), nil, nil)
	eval := new(core.Evaluator)
	for v := 0; v < n; v++ {
		p := &port{cl: cl, v: v}
		nd := newNode(cfg, p, cl.staleView)
		nd.clk = p
		nd.name, nd.self, nd.names, nd.index, nd.eval = names[v], v, names, index, eval
		nd.install(g, views.View(v))
		cl.nodes[v] = nd
	}
	return cl, nil
}

// staleView is the nodes' staleness verdict under dynamic hello maintenance:
// some view-neighbor is past its beacon expiry at time now, with the beacon
// loss schedule evaluated as the pure hash the simulator uses, so
// seed-matched runs agree on every verdict.
func (cl *Cluster) staleView(v int, now float64) bool {
	d := cl.cfg.DynamicHello
	return d != nil && d.ViewStale(cl.g, v, now)
}

// DeliveredNodes returns the per-node delivery outcome of the most recent
// broadcast (nil before the first). The slice is owned by the cluster and
// valid until the next Broadcast.
func (cl *Cluster) DeliveredNodes() []bool { return cl.lastDelivered }

// run is the state of one live broadcast.
type run struct {
	cl   *Cluster
	plan *fault.Plan
	msg  int64
	// now is the virtual clock in time units: the time of the action being
	// run. queue holds every scheduled-but-unrun action; the broadcast has
	// quiesced when it is empty.
	now   float64
	seq   int
	queue queue
	// links[v][i] drives the nemesis draws of the directed link from v to
	// its i-th true neighbor (see draw).
	links [][]*rand.Rand

	copies, lost, droppedNodeDown, droppedLinkDown, timersCancelled int
}

func (r *run) down(v int, t float64) bool {
	return r.plan != nil && r.plan.NodeDownAt(v, t)
}

// later schedules fn d time units from now.
func (r *run) later(d float64, fn func()) {
	r.seq++
	r.queue.push(action{at: r.now + max(d, 0), seq: r.seq, fn: fn})
}

// action is one scheduled step of a run: fn at time at, with seq breaking
// ties in scheduling order.
type action struct {
	at  float64
	seq int
	fn  func()
}

// queue is a binary min-heap of actions ordered by (at, seq).
type queue []action

func (q queue) less(i, j int) bool {
	return q[i].at < q[j].at || (q[i].at == q[j].at && q[i].seq < q[j].seq)
}

func (q *queue) push(a action) {
	*q = append(*q, a)
	h := *q
	for i := len(h) - 1; i > 0 && h.less(i, (i-1)/2); i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
}

// pop removes and returns the earliest action of a non-empty queue.
func (q *queue) pop() action {
	h := *q
	top, last := h[0], len(h)-1
	h[0], h[last] = h[last], action{}
	*q = h[:last]
	for i, m := 0, 0; ; i = m {
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < last && h.less(c, m) {
				m = c
			}
		}
		if m == i {
			return top
		}
		h[i], h[m] = h[m], h[i]
	}
}

// port is node v's end of the in-memory wire and its run clock.
type port struct {
	cl *Cluster
	v  int
}

func (p *port) now() float64 { return p.cl.r.now }

func (p *port) after(d float64, protocol bool, fn func()) {
	r := p.cl.r
	r.later(d, func() {
		if !r.down(p.v, r.now) {
			fn()
		} else if protocol {
			r.timersCancelled++
		}
	})
}

// Recv is never called: a Cluster delivers by calling the node's handlers.
func (p *port) Recv() (Envelope, error) {
	return Envelope{}, fmt.Errorf("runtime: a Cluster node has no receive loop")
}

func (p *port) Drops() int64 { return 0 }

// Send moves one envelope between nodes: pkt copies through the nemesis and
// the fault plan, nack requests reliably unless the target is down on
// arrival. Replies addressed to the Cluster itself have no reader and vanish.
func (p *port) Send(env Envelope) error {
	to, ok := p.cl.nodes[p.v].index[env.Dest]
	if !ok {
		return nil
	}
	r := p.cl.r
	switch env.Body.Type {
	case "pkt":
		r.sendCopy(p.v, to, env)
	case "nack":
		r.later(0, func() {
			if !r.down(to, r.now) {
				r.cl.nodes[to].handle(env)
			}
		})
	}
	return nil
}

// draw returns the next nemesis draw of the directed link from → to. A
// link's stream is seeded on its first draw: seeding costs more than a wave,
// and a reliable link never draws.
func (r *run) draw(from, to int) float64 {
	nbrs := r.cl.g.Neighbors(from)
	if r.links[from] == nil {
		r.links[from] = make([]*rand.Rand, len(nbrs))
	}
	i := sort.SearchInts(nbrs, to)
	if r.links[from][i] == nil {
		r.links[from][i] = rand.New(rand.NewSource(stream.Seed(r.cl.cfg.Seed, "live.link", int(r.msg), from, to)))
	}
	return r.links[from][i].Float64()
}

// sendCopy pushes one copy onto the directed link, applying the nemesis:
// jitter on the delivery delay, Bernoulli drop and duplication. The link's
// draws follow the sender's send order.
func (r *run) sendCopy(from, to int, env Envelope) {
	cfg := &r.cl.cfg
	delay := cfg.TransmitDelay
	if cfg.Nemesis.JitterFrac > 0 {
		delay += r.draw(from, to) * cfg.Nemesis.JitterFrac * cfg.TransmitDelay
	}
	drop := cfg.Nemesis.DropRate > 0 && r.draw(from, to) < cfg.Nemesis.DropRate
	r.deliverCopy(from, to, env, delay, drop)
	if cfg.Nemesis.DupRate > 0 && r.draw(from, to) < cfg.Nemesis.DupRate {
		// The duplicate trails the original by up to one transmit delay,
		// so it usually arrives after other traffic has interleaved.
		r.deliverCopy(from, to, env, delay+r.draw(from, to)*cfg.TransmitDelay, false)
	}
}

// deliverCopy schedules one copy's arrival and resolves its fate at arrival
// time, exactly as the simulator's dispatch does: receiver down → silent
// drop; link down → drop, detectable if the nemesis says so; nemesis drop →
// detectable; otherwise delivery. A detectable drop reaches the receiver as
// a garble envelope.
func (r *run) deliverCopy(from, to int, env Envelope, delay float64, drop bool) {
	r.copies++
	r.later(delay, func() {
		at := r.now
		switch {
		case r.down(to, at):
			r.droppedNodeDown++
			return
		case r.plan != nil && r.plan.LinkDownAt(from, to, at):
			r.droppedLinkDown++
			if !r.cl.cfg.Nemesis.DetectablePartitions {
				return
			}
		case drop:
			r.lost++
		default:
			r.cl.nodes[to].handle(env)
			return
		}
		b := env.Body
		r.cl.nodes[to].handle(Envelope{Src: env.Src, Dest: env.Dest, Body: Body{
			Type: "garble", From: b.From, Attempt: b.Attempt, Message: b.Message}})
	})
}

// Broadcast runs one live broadcast from source under the given fault plan
// (nil for none) and returns a result in the simulator's format. It runs
// the queue until the network has quiesced: no copy in flight, no timer
// pending, no recovery chain alive. A broadcast whose next action lies past
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
	cl.msg++
	r := &run{cl: cl, plan: plan, msg: cl.msg, links: make([][]*rand.Rand, n)}
	cl.r = r
	// Every node builds and initializes its core for the new message before
	// the clock starts (static protocols precompute here).
	for _, nd := range cl.nodes {
		clear(nd.waves)
		nd.wave(r.msg)
	}
	cl.nodes[source].handle(Envelope{Body: Body{Type: "broadcast", Message: &r.msg}})
	for len(r.queue) > 0 {
		a := r.queue.pop()
		if a.at > cl.cfg.Deadline {
			return sim.Result{}, fmt.Errorf("runtime: broadcast from %d did not quiesce within %v time units",
				source, cl.cfg.Deadline)
		}
		r.now = a.at
		a.fn()
	}
	return r.result(source), nil
}

// result assembles the simulator-format outcome of a quiesced run from the
// nodes' wave counters and the wire's.
func (r *run) result(source int) sim.Result {
	cl := r.cl
	n := len(cl.nodes)
	res := sim.Result{
		N:               n,
		Copies:          r.copies,
		Lost:            r.lost,
		DroppedNodeDown: r.droppedNodeDown,
		DroppedLinkDown: r.droppedLinkDown,
		TimersCancelled: r.timersCancelled,
	}
	waves := make([]*wave, n)
	var forward []int
	cl.lastDelivered = make([]bool, n)
	for v, nd := range cl.nodes {
		w := nd.waves[r.msg]
		waves[v] = w
		res.Receipts += int(w.core.st.Receipts)
		res.NACKs += w.nacks
		res.Retransmits += w.retransmits
		res.Finish = max(res.Finish, w.finish)
		if w.core.Forwarded() {
			forward = append(forward, v)
		}
		cl.lastDelivered[v] = w.core.Delivered()
	}
	// Present transmissions in time order, ties by node id.
	sort.SliceStable(forward, func(i, j int) bool {
		return waves[forward[i]].forwardAt < waves[forward[j]].forwardAt
	})
	res.Forward = forward
	res.Score(cl.g, source, r.plan, func(v int) bool { return cl.lastDelivered[v] })
	if m := cl.cfg.Metrics; m != nil {
		res.FillRecord(m)
		for _, w := range waves {
			if w.core.Delivered() {
				m.Latency.Observe(w.firstAt)
			}
			if w.core.Forwarded() {
				m.ForwardSet.Observe(float64(len(w.core.st.SentPacket().SenderDesignated())))
			}
		}
		// The simulator fills the counter through the same pure function.
		if d := cl.cfg.DynamicHello; d != nil {
			m.StaleViewHolds = d.StaleViewHolds(cl.g, res.Finish)
		}
	}
	return res
}

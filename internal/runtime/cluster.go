package runtime

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adhocbcast/internal/fault"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/sim"
)

// Cluster is an in-process live network: n Nodes over an in-memory wire and a
// run clock. The wire passes envelope values (no codec) through the nemesis
// and the fault plan; the clock reads the wall clock from the start of each
// broadcast, scaled by Config.TimeScale. Deliveries and timers run on timer
// goroutines under the receiving node's lock, which serializes each node's
// handlers without a goroutine per node. A Cluster is built once per topology
// and runs any number of broadcasts, one at a time.
type Cluster struct {
	g     *graph.Graph
	cfg   Config
	nodes []*Node
	ports []*port
	// locks[v] serializes node v's handlers, and guards ports[v].r.
	locks []sync.Mutex
	msg   int64 // broadcasts started: the message id of the latest
	// lastDelivered records per-node delivery of the most recent broadcast
	// (sim.Result only carries counts; invariant checks need the set).
	lastDelivered []bool
}

// New builds a live cluster over g: one Node per vertex, each initialized
// and given the topology through its ordinary envelope handlers.
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
		ports: make([]*port, n),
		locks: make([]sync.Mutex, n),
	}
	names := make([]string, n)
	for v := range names {
		names[v] = "n" + strconv.Itoa(v)
	}
	topo := make(map[string][]string, n)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			topo[names[v]] = append(topo[names[v]], names[u])
		}
	}
	for v := 0; v < n; v++ {
		p := &port{cl: cl, v: v}
		nd := newNode(cfg, p, cl.staleView)
		nd.clk = p
		cl.nodes[v], cl.ports[v] = nd, p
		nd.handle(Envelope{Dest: names[v], Body: Body{Type: "init", NodeID: names[v], NodeIDs: names}})
		nd.handle(Envelope{Dest: names[v], Body: Body{Type: "topology", Topology: topo}})
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
	t0   time.Time
	// inflight tracks every scheduled-but-unprocessed action (pending
	// timer, copy in flight). The broadcast has quiesced when it drains;
	// handlers schedule follow-ups before releasing their own slot, so the
	// counter never touches zero early.
	inflight sync.WaitGroup
	// aborted turns every later delivery and timer of a run that missed its
	// deadline into a no-op.
	aborted atomic.Bool
	// links[v][i] drives the nemesis draws of the directed link from v to
	// its i-th true neighbor; seeded on first draw, drawn only under v's lock.
	links [][]*rand.Rand

	copies, lost, droppedNodeDown, droppedLinkDown, timersCancelled atomic.Int64
}

// now returns the run clock in time units.
func (r *run) now() float64 {
	return float64(time.Since(r.t0)) / float64(r.cl.cfg.TimeScale)
}

// wall converts d time units to a wall-clock duration.
func (r *run) wall(d float64) time.Duration {
	return time.Duration(max(d, 0) * float64(r.cl.cfg.TimeScale))
}

func (r *run) down(v int, t float64) bool {
	return r.plan != nil && r.plan.NodeDownAt(v, t)
}

// later runs fn on node v's execution context — under its lock — after d
// time units, counting toward quiescence.
func (r *run) later(v int, d float64, fn func()) {
	r.inflight.Add(1)
	time.AfterFunc(r.wall(d), func() {
		defer r.inflight.Done()
		mu := &r.cl.locks[v]
		mu.Lock()
		defer mu.Unlock()
		if !r.aborted.Load() {
			fn()
		}
	})
}

// port is node v's end of the in-memory wire and its run clock.
type port struct {
	cl *Cluster
	v  int
	r  *run // the current broadcast
}

func (p *port) now() float64 { return p.r.now() }

func (p *port) after(d float64, protocol bool, fn func()) {
	r := p.r
	r.later(p.v, d, func() {
		if !r.down(p.v, r.now()) {
			fn()
		} else if protocol {
			r.timersCancelled.Add(1)
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
	r := p.r
	switch env.Body.Type {
	case "pkt":
		r.sendCopy(p.v, to, env)
	case "nack":
		r.later(to, 0, func() {
			if !r.down(to, r.now()) {
				r.cl.nodes[to].handle(env)
			}
		})
	}
	return nil
}

// link returns the nemesis stream of the directed link from → to.
func (r *run) link(from, to int) *rand.Rand {
	nbrs := r.cl.g.Neighbors(from)
	if r.links[from] == nil {
		r.links[from] = make([]*rand.Rand, len(nbrs))
	}
	i := sort.SearchInts(nbrs, to)
	if r.links[from][i] == nil {
		r.links[from][i] = rand.New(rand.NewSource(StreamSeed(r.cl.cfg.Seed, "live.link", int(r.msg), from, to)))
	}
	return r.links[from][i]
}

// sendCopy pushes one copy onto the directed link, applying the nemesis:
// jitter on the delivery delay, Bernoulli drop and duplication. Runs under
// the sender's lock, so the link's draws are ordered by the sender's send
// order.
func (r *run) sendCopy(from, to int, env Envelope) {
	cfg := &r.cl.cfg
	lr := r.link(from, to)
	delay := cfg.TransmitDelay
	if cfg.Nemesis.JitterFrac > 0 {
		delay += lr.Float64() * cfg.Nemesis.JitterFrac * cfg.TransmitDelay
	}
	drop := cfg.Nemesis.DropRate > 0 && lr.Float64() < cfg.Nemesis.DropRate
	r.deliverCopy(from, to, env, delay, drop)
	if cfg.Nemesis.DupRate > 0 && lr.Float64() < cfg.Nemesis.DupRate {
		// The duplicate trails the original by up to one transmit delay,
		// so it usually arrives after other traffic has interleaved.
		r.deliverCopy(from, to, env, delay+lr.Float64()*cfg.TransmitDelay, false)
	}
}

// deliverCopy schedules one copy's arrival and resolves its fate at arrival
// time, exactly as the simulator's dispatch does: receiver down → silent
// drop; link down → drop, detectable if the nemesis says so; nemesis drop →
// detectable; otherwise delivery. A detectable drop reaches the receiver as
// a garble envelope.
func (r *run) deliverCopy(from, to int, env Envelope, delay float64, drop bool) {
	r.copies.Add(1)
	r.later(to, delay, func() {
		at := r.now()
		switch {
		case r.down(to, at):
			r.droppedNodeDown.Add(1)
			return
		case r.plan != nil && r.plan.LinkDownAt(from, to, at):
			r.droppedLinkDown.Add(1)
			if !r.cl.cfg.Nemesis.DetectablePartitions {
				return
			}
		case drop:
			r.lost.Add(1)
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
	cl.msg++
	r := &run{cl: cl, plan: plan, msg: cl.msg, links: make([][]*rand.Rand, n)}
	// Every node builds and initializes its core for the new message before
	// the clock starts (static protocols precompute here). Taking each lock
	// also waits out any handler still running from an aborted broadcast.
	for v, nd := range cl.nodes {
		cl.locks[v].Lock()
		cl.ports[v].r = r
		clear(nd.waves)
		nd.wave(r.msg)
		cl.locks[v].Unlock()
	}
	r.t0 = time.Now()
	r.later(source, 0, func() {
		cl.nodes[source].handle(Envelope{Body: Body{Type: "broadcast", Message: &r.msg}})
	})

	done := make(chan struct{})
	go func() {
		r.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(r.wall(cl.cfg.Deadline)):
		r.aborted.Store(true)
		return sim.Result{}, fmt.Errorf("runtime: broadcast from %d did not quiesce within %v time units",
			source, cl.cfg.Deadline)
	}
	return r.result(source), nil
}

// result assembles the simulator-format outcome of a quiesced run from the
// nodes' wave counters and the wire's. The inflight.Wait in Broadcast
// ordered every handler's writes before these reads.
func (r *run) result(source int) sim.Result {
	cl := r.cl
	n := len(cl.nodes)
	res := sim.Result{
		N:               n,
		Copies:          int(r.copies.Load()),
		Lost:            int(r.lost.Load()),
		DroppedNodeDown: int(r.droppedNodeDown.Load()),
		DroppedLinkDown: int(r.droppedLinkDown.Load()),
		TimersCancelled: int(r.timersCancelled.Load()),
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
	// Live transmissions are only partially ordered, so sort by timestamp
	// (ties by node id) to get the simulator's deterministic presentation.
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

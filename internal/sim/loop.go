package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"adhocbcast/internal/core"
)

// TimerPrecomputer is implemented by protocols whose pending-timer coverage
// decision is a pure function of the timer owner's current state: given node
// v with a timer firing now, PrecomputeTimer returns the verdict the
// protocol's OnTimer coverage evaluation would reach, or ok=false when no
// verdict applies (the timer then dispatches normally). Implementations must
// not mutate the run, draw randomness, or read any mutable state outside
// node v's own; rt is the run's Runtime, ev a private evaluator for this
// call. The event loop of a single run calls it concurrently, on the
// dispatching goroutine and on helper goroutines, for each timer that is its
// owner's earliest event of the instant, in every same-instant batch of at
// least minShard timers (by default whenever GOMAXPROCS > 1; see
// Config.Workers), and hands the verdict back through the owner's
// NodeState.TakePreparedCovered during the sequential dispatch pass.
type TimerPrecomputer interface {
	PrecomputeTimer(rt Runtime, v int, ev *core.Evaluator) (covered, ok bool)
}

// NonDesignating is implemented by protocols for which receive handling never
// observes designation state or the receiver's own view marks, and nothing
// reads the view of a node that has decided: no designated sets ride the
// packet trails, OnReceive reads nothing a view merge changes, and a node's
// coverage condition runs from its own timers only while it has neither
// transmitted nor taken non-forward status. Both executors therefore stop
// merging copies into a node's view, and marking a sender's own, once it has
// decided (RetiresViews, NodeState.ViewRetired), and the simulator keeps no
// view at all for a node whose settled bit says covered (Settled), since the
// bit decides it without reading the view.
type NonDesignating interface {
	NonDesignating() bool
}

// minShard is the fewest timers a same-instant batch must hold before the
// loop shards its precompute across workers. A fork/join of one helper
// goroutine costs 3–5 µs on a 2-core host between batches, against 7–14 µs
// per coverage verdict (DESIGN.md, "Sharded timer verdicts"), so at 128
// timers the fork is under 1 % of a shard's work; no batch of a paper-sized
// run (n <= 100) comes near it. It is a variable only so that the package's
// tests can lower it (export_test.go) and drive the sharded path on small
// networks.
var minShard = 128

// shardGrain is how many precomputable timers a sharded batch must hold per
// helper goroutine: a batch of k such timers starts min(w-1, k/shardGrain)
// helpers, so every worker's share is at least shardGrain/2 verdicts and a
// fork stays a percent or two of the work it buys on any core count. It also
// bounds the helpers' n-sized evaluators by the widest batch a run holds, not
// by GOMAXPROCS. Tests lower it to zero (no bound) with minShard.
var shardGrain = 64

// loop is the event loop: it drains all events sharing the earliest instant
// from the calendar queue as one batch (events pushed while the batch runs
// carry higher sequence numbers and later-or-equal times, so they land in a
// later batch, and dispatch order is exactly (at, seq) order), counting its
// timers, and hands the batch to runBatch. A transmission (eventTransmit)
// enters the batch as its deg(v) receive copies, numbered from its first
// sequence number up (appendCopies): no other event holds a number of that
// block, so the batch is the one deg(v) separately queued copies would
// make. The test-side binary-heap oracle (oracle_test.go) orders every copy
// individually and dispatches one event at a time; results must match bit
// for bit.
func (net *Network) loop() {
	q := &net.arena.cal
	for q.size > 0 {
		at := q.peekTime()
		if debugChecks && at < net.now {
			panic(fmt.Sprintf("sim: event time %v before now %v", at, net.now))
		}
		net.now = at
		batch := net.arena.batch[:0]
		timers := 0
		for q.size > 0 && q.peekTime() == at {
			e := q.pop()
			switch e.kind {
			case eventTransmit:
				batch = net.appendCopies(batch, &e)
				continue
			case eventTimer:
				timers++
			}
			batch = append(batch, e)
		}
		net.arena.batch = batch
		net.runBatch(batch, net.workers > 1 && timers >= minShard)
	}
}

// appendCopies appends transmission t's receive copies to batch: one per
// neighbor of the sender, in Adj order, with sequence numbers t.seq,
// t.seq+1, … (the block pushTransmit reserved).
func (net *Network) appendCopies(batch []event, t *event) []event {
	seq := t.seq
	for _, u := range net.G.Adj(int(t.node)) {
		batch = append(batch, event{
			at:      t.at,
			seq:     seq,
			kind:    eventReceive,
			node:    u,
			peer:    t.node,
			pkt:     t.pkt,
			session: t.session,
		})
		seq++
	}
	return batch
}

// runBatch processes one same-instant batch: an optional sequential collision
// pass (fault pre-filter plus arrival counting), the parallel precompute pass
// when shard is set, and the sequential dispatch pass that replays the events
// in sequence order, so side effects do not depend on the worker count.
func (net *Network) runBatch(batch []event, shard bool) {
	coll := net.Cfg.Collisions
	var arr []int32
	var arrTouched []int
	if coll {
		// Two or more copies arriving at one receiver at the same instant
		// destroy each other. Copies already dropped by the fault plan do not
		// count as arrivals — a down node's radio is off, not jamming.
		live := batch[:0]
		for i := range batch {
			if batch[i].kind == eventReceive && net.dropByFault(&batch[i]) {
				continue
			}
			live = append(live, batch[i])
		}
		batch = live
		arr, arrTouched = net.countArrivals(batch)
	}
	if shard {
		net.precompute(batch)
	}
	for i := range batch {
		e := &batch[i]
		if coll && e.kind == eventReceive && arr[e.node] > 1 {
			net.tally.Collided++
			net.maybeNACK(e)
			continue
		}
		net.dispatch(e)
		if shard && e.kind == eventTimer {
			// Drop any verdict the dispatch did not consume (node down,
			// already sent, strict designation, ...).
			net.sessions[0].nodes[e.node].prepared = 0
		}
	}
	if coll {
		net.clearArrivals(arr, arrTouched)
	}
}

// countArrivals tallies a batch's receive arrivals per receiver into the
// arena's flat count array, returning it with the list of touched nodes. The
// caller must hand both back to clearArrivals once done — the array relies on
// that discipline to stay all-zero between batches instead of being cleared
// per batch (the batch is tiny compared to n).
func (net *Network) countArrivals(batch []event) ([]int32, []int) {
	arr := net.arena.arrCnt
	touched := net.arena.arrTouched[:0]
	for i := range batch {
		e := &batch[i]
		if e.kind != eventReceive {
			continue
		}
		if arr[e.node] == 0 {
			touched = append(touched, int(e.node))
		}
		arr[e.node]++
	}
	return arr, touched
}

func (net *Network) clearArrivals(arr []int32, touched []int) {
	for _, v := range touched {
		arr[v] = 0
	}
	net.arena.arrTouched = touched[:0]
}

// precompute is the parallel phase of a single run (session 0), for a batch
// of at least minShard timers: it picks, sequentially, the timers that are
// their owner's earliest event of the instant (any protocol implementing
// TimerPrecomputer), then shards their coverage verdicts across w workers.
// The dispatching goroutine, with the run's own evaluator, and w-1 helper
// goroutines, each with a private evaluator, claim the timers one at a time;
// a batch gets one helper per shardGrain timers, at most w-1. Workers write
// only the timer owner's NodeState, so the outcome is deterministic and
// independent of scheduling; everything order-sensitive stays in the
// sequential dispatch pass. The per-node marks are set up by the run's first
// sharded batch, so a run that never shards allocates nothing for them.
func (net *Network) precompute(batch []event) {
	a := net.arena
	if !net.sharded {
		a.precomputeScratch(net.G.N())
		net.sharded = true
	}
	s := &net.sessions[0]
	tp, ok := s.proto.(TimerPrecomputer)
	if !ok {
		return
	}
	seen, timers := a.evtSeen, a.timerIdx[:0]
	for i := range batch {
		e := &batch[i]
		if !seen[e.node] {
			seen[e.node] = true
			if e.kind == eventTimer && !net.down(int(e.node)) {
				timers = append(timers, i)
			}
		}
	}
	for i := range batch {
		seen[batch[i].node] = false
	}
	a.timerIdx = timers
	if len(timers) == 0 {
		return
	}
	w := net.workers
	if shardGrain > 0 {
		w = 1 + min(w-1, len(timers)/shardGrain)
	}
	var next atomic.Int32 // the next unclaimed entry of timers
	work := func(ev *core.Evaluator) {
		// Timers are claimed one at a time rather than split up front, so a
		// worker whose core is busy elsewhere holds up the join by one
		// verdict at most.
		for {
			k := int(next.Add(1)) - 1
			if k >= len(timers) {
				return
			}
			e := &batch[timers[k]]
			if cov, ok := tp.PrecomputeTimer(s, int(e.node), ev); ok {
				verdict := int8(1)
				if cov {
					verdict = 2
				}
				s.nodes[e.node].prepared = verdict
			}
		}
	}
	helpers := a.workerEvals(w-1, net.G.N())
	var wg sync.WaitGroup
	wg.Add(len(helpers))
	for _, ev := range helpers {
		go func() {
			defer wg.Done()
			work(ev)
		}()
	}
	work(net.Evaluator())
	wg.Wait()
}

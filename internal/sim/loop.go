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
// observes designation state or the receiver's own view marks: no designated
// sets ride the packet trails, and OnReceive for a node whose only events
// this instant are receives reads nothing a view merge changes. For such
// protocols the event loop may apply a node's same-instant view merges from
// a worker goroutine before the sequential dispatch pass; the merge is
// monotone and per-node, so the final state is identical.
type NonDesignating interface {
	NonDesignating() bool
}

// evtKind bits classifying a node's events within one same-instant batch.
const (
	kindReceive   uint8 = 1 << iota // node has >= 1 receive event
	kindOther                       // node has a timer/NACK/retransmit event
	kindPremerged                   // node's view merges were applied by a worker
)

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
// timers, and hands the batch to runBatch. The test-side binary-heap oracle
// (oracle_test.go) dispatches the same events one at a time; results must
// match bit for bit.
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
			batch = append(batch, q.pop())
			if batch[len(batch)-1].kind == eventTimer {
				timers++
			}
		}
		net.arena.batch = batch
		net.runBatch(batch, net.workers > 1 && timers >= minShard)
	}
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
	var kinds []uint8
	if shard {
		kinds = net.precompute(batch)
	}
	for i := range batch {
		e := &batch[i]
		if coll && e.kind == eventReceive && arr[e.node] > 1 {
			net.tally.Collided++
			net.maybeNACK(e)
			continue
		}
		switch {
		case kinds != nil && e.kind == eventReceive && kinds[e.node]&kindPremerged != 0:
			net.handleReceive(e, true)
		case kinds != nil && e.kind == eventTimer:
			net.dispatch(e)
			// Drop any verdict the dispatch did not consume (node down,
			// already sent, strict designation, ...).
			net.sessions[0].nodes[e.node].prepared = 0
		default:
			net.dispatch(e)
		}
	}
	if coll {
		net.clearArrivals(arr, arrTouched)
	}
	if kinds != nil {
		for _, v := range net.arena.evtTouched {
			kinds[v] = 0
		}
		net.arena.evtTouched = net.arena.evtTouched[:0]
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
// of at least minShard timers: it classifies the batch's events per node
// sequentially, then shards two kinds of pure per-node work across w workers
// — coverage verdicts for timers that are their owner's earliest event of the
// instant (any protocol implementing TimerPrecomputer), and view merges for
// nodes whose only events this instant are receives (protocols declaring
// NonDesignating, under a clean collision-free MAC). The dispatching
// goroutine, with the run's own evaluator, and w-1 helper goroutines, each
// with a private evaluator, claim the timers one at a time and split the
// merges by receiver; a batch gets one helper per shardGrain timers, at most
// w-1. Workers write only to disjoint per-node slots, so the
// merged outcome is deterministic and independent of scheduling; everything
// order-sensitive stays in the sequential dispatch pass. Verdicts go to the
// timer owner's NodeState. The classification array is set up by the run's
// first sharded batch, so a run that never shards allocates nothing for it.
func (net *Network) precompute(batch []event) []uint8 {
	a := net.arena
	if !net.sharded {
		a.precomputeScratch(net.G.N())
		net.sharded = true
	}
	kinds := a.evtKind
	touched := a.evtTouched[:0]
	timers := a.timerIdx[:0]
	s := &net.sessions[0]
	tp, _ := s.proto.(TimerPrecomputer)
	for i := range batch {
		e := &batch[i]
		bit := kindOther
		if e.kind == eventReceive {
			bit = kindReceive
		}
		if kinds[e.node] == 0 {
			touched = append(touched, int(e.node))
			if e.kind == eventTimer && tp != nil && !net.down(int(e.node)) {
				timers = append(timers, i)
			}
		}
		kinds[e.node] |= bit
	}
	a.evtTouched = touched
	a.timerIdx = timers
	premerge := false
	// Pre-merge is off under the contention MAC (a copy may still be garbled
	// at dispatch time), in addition to the loss/collision/fault gates.
	if nd, ok := s.proto.(NonDesignating); ok && nd.NonDesignating() &&
		net.Cfg.LossRate == 0 && !net.Cfg.Collisions && !net.Cfg.CarrierSense &&
		net.plan == nil {
		for _, v := range touched {
			if kinds[v] == kindReceive {
				kinds[v] |= kindPremerged
				premerge = true
			}
		}
	}
	if len(timers) == 0 && !premerge {
		return kinds
	}
	w := net.workers
	if shardGrain > 0 {
		w = 1 + min(w-1, len(timers)/shardGrain)
	}
	var next atomic.Int32 // the next unclaimed entry of timers
	work := func(wi int, ev *core.Evaluator) {
		// Timers are claimed one at a time rather than split up front, so a
		// worker whose core is busy elsewhere holds up the join by one
		// verdict at most.
		for {
			k := int(next.Add(1)) - 1
			if k >= len(timers) {
				break
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
		if !premerge {
			return
		}
		// Shard merges by receiver so each node's merges apply in batch
		// order within one worker (they are monotone and commutative, but
		// the discipline costs nothing).
		for i := range batch {
			e := &batch[i]
			if e.kind == eventReceive && int(e.node)%w == wi &&
				kinds[e.node]&kindPremerged != 0 {
				MergeReceipt(&s.nodes[e.node], int(e.node), e.receipt())
			}
		}
	}
	helpers := a.workerEvals(w-1, net.G.N())
	var wg sync.WaitGroup
	wg.Add(len(helpers))
	for i, ev := range helpers {
		go func() {
			defer wg.Done()
			work(i+1, ev)
		}()
	}
	work(0, net.Evaluator())
	wg.Wait()
	return kinds
}

package sim

import (
	"container/heap"
	"fmt"

	"adhocbcast/internal/graph"
)

// The reference implementation of the event loop, kept where its only callers
// are: the original simulator's global binary heap of *event, dispatching one
// event at a time. Production code cannot select it; the differential tests
// (TestEngineFastMatchesOracle, TestTrafficFastMatchesOracle) run every
// protocol and channel model through both loops and demand identical results,
// traces and run records, and calqueue_test.go pins the calendar queue's pop
// order against this heap.

// eventQueue is a binary min-heap of events ordered by (at, seq).
type eventQueue []*event

var _ heap.Interface = (*eventQueue)(nil)

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(*event)) }

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// RunOracle is Run on the reference loop: the production set-up (newRun) and
// the production dispatch, in the order the binary heap alone decides.
// Config.Workers is ignored — the reference is sequential.
func RunOracle(g *graph.Graph, source int, p Protocol, cfg Config) (Result, error) {
	net, err := newRun(nil, g, source, p, cfg)
	if err != nil {
		return Result{}, err
	}
	oracleLoop(net)
	return net.result(), nil
}

// RunTrafficOracle is RunTrafficWith on the reference loop.
func RunTrafficOracle(g *graph.Graph, sessions []SessionSpec, newProto func() Protocol, cfg Config) (TrafficResult, error) {
	net, err := newTrafficRun(nil, g, sessions, newProto, cfg)
	if err != nil {
		return TrafficResult{}, err
	}
	oracleLoop(net)
	return net.trafficResult(), nil
}

// oracleLoop runs net to completion off a private binary heap. Production
// code schedules onto the arena's calendar queue; before every step the loop
// moves whatever landed there into the heap, so the calendar queue never
// orders anything. A transmission moves as the per-copy receive events it
// stands for — one per neighbor of the sender, numbered from its first
// sequence number in neighbor order — so the heap orders every copy on its
// own, as the simulator did when each copy was queued separately. A step is
// one event, or under Config.Collisions all events of one instant.
func oracleLoop(net *Network) {
	var q eventQueue
	cal := &net.arena.cal
	drain := func() {
		for cal.size > 0 {
			e := cal.pop()
			if e.kind != eventTransmit {
				heap.Push(&q, &e)
				continue
			}
			for i, u := range net.G.Neighbors(int(e.node)) {
				heap.Push(&q, &event{
					at:      e.at,
					seq:     e.seq + i,
					kind:    eventReceive,
					node:    int32(u),
					peer:    e.node,
					pkt:     e.pkt,
					session: e.session,
				})
			}
		}
	}
	for drain(); q.Len() > 0; drain() {
		at := q[0].at
		if at < net.now {
			panic(fmt.Sprintf("sim: event time %v before now %v", at, net.now))
		}
		net.now = at
		if !net.Cfg.Collisions {
			net.dispatch(heap.Pop(&q).(*event))
			continue
		}
		// Collision mode: two or more copies arriving at the same receiver
		// at the same instant destroy each other. Copies already dropped by
		// the fault plan do not count as arrivals — a down node's radio is
		// off, not jamming.
		var live []*event
		arrivals := map[int32]int{}
		for q.Len() > 0 && q[0].at == at {
			e := heap.Pop(&q).(*event)
			if e.kind == eventReceive {
				if net.dropByFault(e) {
					continue
				}
				arrivals[e.node]++
			}
			live = append(live, e)
		}
		for _, e := range live {
			if e.kind == eventReceive && arrivals[e.node] > 1 {
				net.tally.Collided++
				net.maybeNACK(e)
				continue
			}
			net.dispatch(e)
		}
	}
}

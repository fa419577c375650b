package sim

import (
	"fmt"
	"math"
	"sort"

	"adhocbcast/internal/graph"
	"adhocbcast/internal/obsv"
)

// Multi-session traffic runs (RunTraffic): many concurrent broadcast sessions
// share one simulated network and — under Config.CarrierSense — one radio
// channel per node. Each session gets its own protocol instance, node states,
// and local views (an overlay of the run's built view set, so per-session
// view state costs one view array and one status slab instead of n BFS),
// while the MAC queues, the channel, the fault plan, and every RNG stream are
// shared.
// docs/traffic-model.md is the normative spec.

// SessionSpec describes one injected broadcast session: Source starts a
// broadcast at time At. internal/traffic generates deterministic arrival
// processes of these; the simulator only requires sources in range and
// non-decreasing injection times.
type SessionSpec struct {
	// Source is the broadcast originator.
	Source int
	// At is the injection time in simulation slots (>= 0).
	At float64
}

// TrafficResult summarizes one multi-session traffic run. Delivery is counted
// over (session, node) pairs: a run of S sessions over N nodes has S*N
// deliverable pairs.
type TrafficResult struct {
	// Sessions is the number of injected broadcast sessions.
	Sessions int
	// N is the network size.
	N int
	// Finish is the time of the last event.
	Finish float64
	// Delivered counts first deliveries across all sessions (the source's
	// own possession counts, as in single runs).
	Delivered int
	// Forward counts transmissions across all sessions (the Result.Forward
	// order is not kept per session; the trace has it when needed).
	Forward int
	// Copies through Retransmits aggregate the channel accounting over all
	// sessions, with the same conservation identity as Result: Receipts +
	// Lost + Collided + DroppedNodeDown + DroppedLinkDown == Copies.
	Copies          int
	Receipts        int
	Lost            int
	Collided        int
	DroppedNodeDown int
	DroppedLinkDown int
	TimersCancelled int
	NACKs           int
	Retransmits     int
	// QueueDrops and MACDeferrals count contention-MAC activity (zero
	// without Config.CarrierSense); queue drops are outside the Copies
	// conservation identity, since queued packets never went on the air.
	QueueDrops   int
	MACDeferrals int
	// LatencyMean, LatencyP50, and LatencyP99 summarize first-delivery
	// latency relative to each session's injection time, over all delivered
	// (session, node) pairs. Quantiles are exact (nearest-rank over every
	// sample), not histogram estimates.
	LatencyMean float64
	LatencyP50  float64
	LatencyP99  float64
}

// DeliveryRatio returns delivered (session, node) pairs over deliverable
// ones.
func (r TrafficResult) DeliveryRatio() float64 {
	if r.Sessions == 0 || r.N == 0 {
		return 0
	}
	return float64(r.Delivered) / (float64(r.Sessions) * float64(r.N))
}

// Throughput returns goodput in session-equivalents per slot: total first
// deliveries normalized by network size, over the run duration. A value of x
// means the network completed the delivery work of x full broadcasts per
// slot; under saturation it plateaus while offered load keeps growing.
func (r TrafficResult) Throughput() float64 {
	if r.N == 0 || r.Finish <= 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.N) / r.Finish
}

// FaultDrops returns the total copies dropped by the fault plan.
func (r TrafficResult) FaultDrops() int { return r.DroppedNodeDown + r.DroppedLinkDown }

// RunTraffic simulates the given broadcast sessions over g, one protocol
// instance per session built by newProto, and returns the aggregate outcome.
// Sessions must be ordered by non-decreasing injection time; use
// internal/traffic to generate deterministic arrival plans.
func RunTraffic(g *graph.Graph, sessions []SessionSpec, newProto func() Protocol, cfg Config) (TrafficResult, error) {
	return RunTrafficWith(nil, g, sessions, newProto, cfg)
}

// RunTrafficWith is RunTraffic with an explicit Arena, with the same reuse
// contract as RunWith. Per-session node states and views are allocated per
// run (they are what a session is), but the event queue, built views, MAC
// scratch, and evaluator are all arena-reused.
func RunTrafficWith(a *Arena, g *graph.Graph, sessions []SessionSpec, newProto func() Protocol, cfg Config) (TrafficResult, error) {
	net, err := newTrafficRun(a, g, sessions, newProto, cfg)
	if err != nil {
		return TrafficResult{}, err
	}
	net.loop()
	return net.trafficResult(), nil
}

// newTrafficRun builds the Network of one traffic run up to the point where
// only the event loop remains: inputs checked, the shared view set built, and
// every session's start scheduled at its injection time.
func newTrafficRun(a *Arena, g *graph.Graph, sessions []SessionSpec, newProto func() Protocol, cfg Config) (*Network, error) {
	if len(sessions) == 0 {
		return nil, fmt.Errorf("sim: traffic run needs at least one session")
	}
	if newProto == nil {
		return nil, fmt.Errorf("sim: traffic run needs a protocol factory")
	}
	if _, ok := cfg.Views.(PerNodeViews); ok {
		return nil, fmt.Errorf("sim: per-node views are not supported in traffic runs")
	}
	prev := 0.0
	for i, sp := range sessions {
		if sp.Source < 0 || sp.Source >= g.N() {
			return nil, fmt.Errorf("sim: session %d source %d out of range [0,%d)", i, sp.Source, g.N())
		}
		if math.IsNaN(sp.At) || math.IsInf(sp.At, 0) || sp.At < prev {
			return nil, fmt.Errorf("sim: session %d injection time %v not finite and non-decreasing", i, sp.At)
		}
		prev = sp.At
	}
	if err := cfg.validate(g.N()); err != nil {
		return nil, err
	}
	net := newNetwork(a, g, sessions[0].Source, cfg)
	net.newProto = newProto
	net.arena.viewsFor(net.viewGraphOf(net.Source), net.Cfg.Hops, net.Cfg.Metric) // startSession overlays them
	net.sessions = make([]session, len(sessions))
	for i, sp := range sessions {
		net.sessions[i] = session{net: net, id: int32(i), source: sp.Source}
		net.pushEvent(event{
			at:      sp.At,
			kind:    eventSessionStart,
			node:    int32(sp.Source),
			session: int32(i),
		})
	}
	return net, nil
}

// startSession brings traffic session sid to life at its injection instant:
// fresh node states and views, a fresh protocol instance, then the set-up a
// single run's session gets.
func (net *Network) startSession(sid int32) {
	s := &net.sessions[sid]
	s.start = net.now
	n := net.G.N()
	views := net.arena.views.Overlay()
	s.nodes = make([]NodeState, n)
	for v := range s.nodes {
		s.nodes[v] = NodeState{
			ID:        v,
			FirstFrom: -1,
			View:      &views[v],
		}
	}
	s.proto = net.newProto()
	net.trace(obsv.TraceSessionStart, sid, s.source, -1, "", nil)
	net.begin(s)
}

func (net *Network) trafficResult() TrafficResult {
	c := net.counters()
	// Deliverability in traffic runs is over (session, node) pairs; the fault
	// plan's reachability analysis is per injection instant, so the record
	// scores against the full pair count.
	c.Delivered = net.delivered
	c.Reachable, c.DeliveredReachable = len(net.sessions)*c.N, c.Delivered
	net.finish(c)
	res := TrafficResult{
		Sessions:        len(net.sessions),
		N:               c.N,
		Finish:          c.Finish,
		Delivered:       c.Delivered,
		Forward:         len(c.Forward),
		Copies:          c.Copies,
		Receipts:        c.Receipts,
		Lost:            c.Lost,
		Collided:        c.Collided,
		DroppedNodeDown: c.DroppedNodeDown,
		DroppedLinkDown: c.DroppedLinkDown,
		TimersCancelled: c.TimersCancelled,
		NACKs:           c.NACKs,
		Retransmits:     c.Retransmits,
		QueueDrops:      c.QueueDrops,
		MACDeferrals:    c.MACDeferrals,
	}
	if sorted := net.arena.latencies; len(sorted) > 0 {
		sort.Float64s(sorted)
		sum := 0.0
		for _, x := range sorted {
			sum += x
		}
		res.LatencyMean = sum / float64(len(sorted))
		res.LatencyP50 = quantileNearestRank(sorted, 0.50)
		res.LatencyP99 = quantileNearestRank(sorted, 0.99)
	}
	if m := net.Cfg.Metrics; m != nil {
		m.Sessions = res.Sessions
	}
	return res
}

// quantileNearestRank returns the nearest-rank q-quantile of an ascending
// sample slice (q in (0, 1]).
func quantileNearestRank(sorted []float64, q float64) float64 {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

package main

import (
	"math/rand"
	"time"

	"adhocbcast/internal/core"
	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/view"
)

// The aggregators below wrap the calls into geo, graph, view, core and sim
// that more than one replay makes, so every replay records the same spans
// and derives the same per-layer metrics from them.

// geoTotals accumulates geo.Generate calls.
type geoTotals struct {
	calls, links, attempts int
	objects                uint64
	busy                   time.Duration
}

// generate calls geo.Generate under a span, counting allocations outside it.
func (g *geoTotals) generate(r *run, op int, cfg geo.Config, rng *rand.Rand) (*geo.Network, error) {
	var net *geo.Network
	var err error
	var d time.Duration
	objects, _ := allocs(func() {
		start := time.Now()
		r.span("geo.Generate", op, func() { net, err = geo.Generate(cfg, rng) })
		d = time.Since(start)
	})
	if err != nil {
		return nil, err
	}
	g.calls++
	g.links += net.G.M()
	g.attempts += net.Attempts
	g.objects += objects
	g.busy += d
	return net, nil
}

func (g *geoTotals) emit(r *run) {
	r.set("geo.generate_s", g.busy.Seconds())
	r.set("geo.generate_calls", float64(g.calls))
	r.set("geo.ns_per_link", float64(g.busy)/float64(g.links))
	// Placements that came out disconnected were generated and thrown away.
	r.set("geo.accept_ratio", float64(g.calls)/float64(g.attempts))
	r.set("geo.allocs_per_call", float64(g.objects)/float64(g.calls))
}

// simTotals accumulates single-broadcast simulator runs.
type simTotals struct {
	runs, delivered           int
	forward, receipts, copies int
	objects, bytes            uint64
	busy                      time.Duration
}

// run calls sim.RunWith under a span, counting allocations outside it, and
// scores the broadcast: anything short of full delivery is a failed operation.
func (s *simTotals) run(r *run, op int, a *sim.Arena, net *geo.Network, source int, p sim.Protocol, cfg sim.Config) (sim.Result, error) {
	var res sim.Result
	var err error
	var d time.Duration
	objects, bytes := allocs(func() {
		start := time.Now()
		r.span("sim.RunWith", op, func() { res, err = sim.RunWith(a, net.G, source, p, cfg) })
		d = time.Since(start)
	})
	if err != nil {
		return res, err
	}
	r.op(res.FullDelivery())
	s.runs++
	s.delivered += res.Delivered
	s.forward += res.ForwardCount()
	s.receipts += res.Receipts
	s.copies += res.Copies
	s.objects += objects
	s.bytes += bytes
	s.busy += d
	return res, nil
}

func (s *simTotals) emit(r *run) {
	r.set("sim.run_s", s.busy.Seconds())
	r.set("sim.runs", float64(s.runs))
	r.set("sim.ns_per_delivery", float64(s.busy)/float64(s.delivered))
	r.set("sim.allocs_per_run", float64(s.objects)/float64(s.runs))
	r.set("sim.bytes_per_run", float64(s.bytes)/float64(s.runs))
	r.set("sim.forward_total", float64(s.forward))
	r.set("sim.receipts_total", float64(s.receipts))
	r.set("sim.copies_total", float64(s.copies))
}

// unitCosts accumulates the standalone probes of graph, view and core over
// one or more networks. Each probe is one span around a loop over nodes, so
// the span bookkeeping never competes with a microsecond-sized call.
type unitCosts struct {
	fromEdges, connected, khop, basePri time.Duration
	khopNodes                           int
	build, clone, covered, strong       time.Duration
	buildNodes, evals, coveredTrue      int
	buildObjects, buildBytes            uint64
}

// probe measures net, visiting every stride-th node in the per-node loops.
func (u *unitCosts) probe(r *run, net *geo.Network, stride int) {
	g := net.G
	n := g.N()
	edges := g.Edges()
	u.fromEdges += r.probe("graph.FromEdges", func() {
		if _, err := graph.FromEdges(n, edges); err != nil {
			r.check(false, "graph.FromEdges: %v", err)
		}
	})
	u.connected += r.probe("graph.Connected", func() {
		r.check(g.Connected(), "generated network is not connected")
	})
	// KHopNeighbors costs O(n) a call, so at 200k nodes it gets a sample of
	// its own: at most khopCalls calls.
	const khopCalls = 2000
	khopStride := stride
	if n/khopStride > khopCalls {
		khopStride = n / khopCalls
	}
	u.khop += r.probe("graph.KHopNeighbors", func() {
		for v := 0; v < n; v += khopStride {
			g.KHopNeighbors(v, 2)
			u.khopNodes++
		}
	})
	var base []view.Priority
	u.basePri += r.probe("view.BasePriorities", func() { base = view.BasePriorities(g, view.MetricID) })

	// Builder.Build over every node is what a cold run pays before its first
	// event, so this loop is never sampled.
	views := make([]*view.Local, n)
	b := view.NewBuilder()
	objects, bytes := allocs(func() {
		u.build += r.probe("view.Builder.Build", func() {
			for v := 0; v < n; v++ {
				views[v] = b.Build(g, v, 2, base)
			}
		})
	})
	u.buildNodes += n
	u.buildObjects += objects
	u.buildBytes += bytes

	ev := core.NewEvaluator(n)
	u.covered += r.probe("core.Evaluator.Covered", func() {
		for v := 0; v < n; v += stride {
			if ev.Covered(views[v]) {
				u.coveredTrue++
			}
			u.evals++
		}
	})
	u.strong += r.probe("core.Evaluator.StrongCovered", func() {
		for v := 0; v < n; v += stride {
			ev.StrongCovered(views[v])
		}
	})
	u.clone += r.probe("view.Local.CloneFresh", func() {
		for v := 0; v < n; v += stride {
			views[v].CloneFresh()
		}
	})
}

func (u *unitCosts) emit(r *run) {
	r.set("graph.from_edges_s", u.fromEdges.Seconds())
	r.set("graph.connected_s", u.connected.Seconds())
	r.set("graph.khop_ns_per_node", float64(u.khop)/float64(u.khopNodes))
	r.set("view.base_priorities_s", u.basePri.Seconds())
	r.set("view.build_s", u.build.Seconds())
	r.set("view.build_ns_per_node", float64(u.build)/float64(u.buildNodes))
	r.set("view.build_allocs_per_node", float64(u.buildObjects)/float64(u.buildNodes))
	r.set("view.build_bytes_per_node", float64(u.buildBytes)/float64(u.buildNodes))
	r.set("view.clone_fresh_ns", float64(u.clone)/float64(u.evals))
	r.set("core.covered_ns_per_eval", float64(u.covered)/float64(u.evals))
	r.set("core.covered_evals", float64(u.evals))
	// The share of verdicts that let the node stay silent: the work the
	// condition exists to save.
	r.set("core.covered_true_ratio", float64(u.coveredTrue)/float64(u.evals))
	r.set("core.strong_ns_per_eval", float64(u.strong)/float64(u.evals))
}

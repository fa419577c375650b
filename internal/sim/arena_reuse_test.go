package sim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/hello"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/view"
)

// TestUsedArenaIsFreshArena is the contract sweep drivers lean on when they
// pool arenas: whatever an Arena ran last, the next run on it is the run a
// new Arena would have made. For every registered protocol under every way a
// run builds and marks views (shared, stale, per-node and beaconed views; global,
// 1-, 2- and 3-hop; both metrics; parallel pre-merge; loss with NACK
// recovery; concurrent sessions over the contention MAC), the Result, the
// event trace and the run record on an Arena that last ran another size,
// depth, metric and protocol — alternately a lossy broadcast and a traffic
// run, so every kind of scratch is left dirty — equal those of sim.Run with
// no Arena; and so does a second run straight after, which is served the
// first one's views with their marks cleared.
func TestUsedArenaIsFreshArena(t *testing.T) {
	generate := func(n int, d float64, seed int64) *geo.Network {
		net, err := geo.Generate(geo.Config{N: n, AvgDegree: d}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	net, stale, other := generate(50, 6, 1), generate(50, 6, 2), generate(80, 8, 3)
	vs, err := hello.Exchange(net.G, hello.Config{Rounds: 2, LossRate: 0.3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	sessions := []sim.SessionSpec{{Source: 3, At: 0}, {Source: 17, At: 0.5}, {Source: 3, At: 2}, {Source: 41, At: 2}}
	scenarios := []struct {
		name    string
		cfg     sim.Config
		traffic bool
	}{
		{name: "plain", cfg: sim.Config{Hops: 2, Seed: 1}},
		{name: "nack-loss", cfg: sim.Config{Hops: 2, LossRate: 0.3, NACKRecovery: true, Seed: 2}},
		{name: "view-topology", cfg: sim.Config{Hops: 2, Views: sim.SharedViews{Topology: stale.G}, Seed: 3}},
		{name: "node-views", cfg: sim.Config{Hops: 2, Views: sim.PerNodeViews{Views: vs, Hold: true}, Seed: 4}},
		{name: "beaconed-views", cfg: sim.Config{Hops: 2, Views: sim.BeaconedViews{Hello: hello.Dynamic{Interval: 0.5, Expiry: 0.7, LossRate: 0.5, Seed: 3}}, Seed: 11}},
		{name: "global", cfg: sim.Config{Hops: 0, Seed: 5}},
		{name: "1-hop", cfg: sim.Config{Hops: 1, Seed: 6}},
		{name: "3-hop", cfg: sim.Config{Hops: 3, Seed: 7}},
		{name: "degree", cfg: sim.Config{Hops: 2, Metric: view.MetricDegree, Seed: 8}},
		{name: "workers", cfg: sim.Config{Hops: 2, Workers: 2, Seed: 9}},
		{name: "traffic", cfg: sim.Config{Hops: 2, CarrierSense: true, NACKRecovery: true, Seed: 10}, traffic: true},
	}
	type outcome struct {
		res   any
		trace []obsv.TraceEvent
		rec   *obsv.RunRecord
	}
	run := func(a *sim.Arena, g *geo.Network, mk func() sim.Protocol, cfg sim.Config, traffic bool) outcome {
		rec := &sim.Recorder{}
		cfg.Observer, cfg.Metrics = rec, obsv.NewRunRecord()
		var res any
		var err error
		if traffic {
			res, err = sim.RunTrafficWith(a, g.G, sessions, mk, cfg)
		} else {
			res, err = sim.RunWith(a, g.G, 7, mk(), cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		return outcome{res, rec.Events(), cfg.Metrics}
	}
	arena := sim.NewArena()
	dirtied := 0
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for _, name := range protocol.Names() {
				mk, _ := protocol.ByName(name)
				want := run(nil, net, mk, sc.cfg, sc.traffic)

				// Leave the arena as a run of another size, depth, metric
				// and protocol leaves it.
				dirty := sim.Config{Hops: 3, Metric: view.MetricDegree, LossRate: 0.2, NACKRecovery: true, Seed: 99}
				if sc.cfg.Hops == 3 {
					dirty.Hops = 2
				}
				if sc.cfg.Metric == view.MetricDegree {
					dirty.Metric = view.MetricID
				}
				dirtyMk := func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffRandom) }
				if mk().Name() == dirtyMk().Name() {
					dirtyMk = protocol.DP
				}
				dirty.CarrierSense = dirtied%2 == 1
				run(arena, other, dirtyMk, dirty, dirty.CarrierSense)
				dirtied++

				for _, pass := range []string{"after another run", "again on its own views"} {
					got := run(arena, net, mk, sc.cfg, sc.traffic)
					if !reflect.DeepEqual(got.res, want.res) {
						t.Errorf("%s %s: result diverged\n arena: %+v\n fresh: %+v", name, pass, got.res, want.res)
					}
					if !reflect.DeepEqual(got.trace, want.trace) {
						t.Errorf("%s %s: trace diverged at event %d (arena %d / fresh %d events)",
							name, pass, firstTraceDiff(got.trace, want.trace), len(got.trace), len(want.trace))
					}
					if !reflect.DeepEqual(got.rec, want.rec) {
						t.Errorf("%s %s: run record diverged", name, pass)
					}
				}
			}
		})
	}
}

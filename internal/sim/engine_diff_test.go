package sim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"adhocbcast/internal/fault"
	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/hello"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/view"
)

// TestEngineFastMatchesOracle is the differential correctness proof for the
// event loop: for every protocol, under every simulator feature (loss,
// collisions+jitter, faults, NACK recovery, stale shared views, lossy
// per-node views with and without the conservative fallback, beaconed
// views with stale holds, global views, metrics,
// tracing), the calendar-queue loop at worker counts 1, 2, and 8 must
// reproduce the test-side binary-heap oracle (oracle_test.go) bit-for-bit:
// identical Result, identical event trace, identical run metrics. Every
// batch shards at workers 2 and 8 (ShardEveryBatch), since none of this
// 60-node network reaches the production threshold. Production runs share
// one Arena across all protocols, scenarios, and worker counts, so hot-state
// reuse is exercised in the same breath.
func TestEngineFastMatchesOracle(t *testing.T) {
	sim.ShardEveryBatch(t)
	rng := rand.New(rand.NewSource(7))
	net, err := geo.Generate(geo.Config{N: 60, AvgDegree: 6}, rng)
	if err != nil {
		t.Fatalf("generate network: %v", err)
	}
	// A stale snapshot: the same nodes after they moved.
	staleRng := rand.New(rand.NewSource(8))
	stale, err := geo.Generate(geo.Config{N: 60, AvgDegree: 6}, staleRng)
	if err != nil {
		t.Fatalf("generate stale topology: %v", err)
	}
	plan, err := fault.NewPlan(net.G, fault.Params{
		CrashFraction: 0.15,
		ChurnFraction: 0.10,
		LinkFraction:  0.10,
		Protect:       []int{0},
	}, 11)
	if err != nil {
		t.Fatalf("fault plan: %v", err)
	}
	vs, err := hello.Exchange(net.G, hello.Config{Rounds: 2, LossRate: 0.3, Seed: 17})
	if err != nil {
		t.Fatalf("hello exchange: %v", err)
	}

	scenarios := []struct {
		name string
		cfg  sim.Config
	}{
		{"clean", sim.Config{Hops: 2, Metric: view.MetricDegree, Seed: 1}},
		{"global-view", sim.Config{Hops: 0, Seed: 1}},
		{"loss", sim.Config{Hops: 2, LossRate: 0.3, Seed: 5}},
		{"collisions-jitter", sim.Config{Hops: 2, Collisions: true, TxJitter: 0.4, Seed: 9}},
		{"nack-loss", sim.Config{Hops: 2, LossRate: 0.3, NACKRecovery: true, Seed: 3}},
		{"faults", sim.Config{Hops: 2, Faults: plan, Seed: 2}},
		{"stale-view", sim.Config{Hops: 2, Views: sim.SharedViews{Topology: stale.G}, Seed: 4}},
		{"node-views", sim.Config{Hops: 2, Views: sim.PerNodeViews{Views: vs}, Seed: 6}},
		{"node-views-conservative", sim.Config{Hops: 2, Views: sim.PerNodeViews{Views: vs, Hold: true}, Seed: 6}},
		{"beaconed-views", sim.Config{Hops: 2, Views: sim.BeaconedViews{Hello: hello.Dynamic{Interval: 0.5, Expiry: 0.7, LossRate: 0.5, Seed: 3}}, Seed: 8}},
	}
	protos := []func() sim.Protocol{
		protocol.Flooding,
		func() sim.Protocol { return protocol.Generic(protocol.TimingStatic) },
		func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) },
		func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffRandom) },
		func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffDegree) },
		func() sim.Protocol { return protocol.GenericStrong(protocol.TimingBackoffRandom) },
		protocol.SelfPruningFR,
		protocol.NeighborDesignatingFR,
		protocol.HybridMaxDeg,
		protocol.HybridMinPri,
		protocol.WuLi,
		protocol.RuleK,
		protocol.Span,
		protocol.MPR,
		protocol.SBA,
		protocol.Stojmenovic,
		protocol.LimKimSelfPruning,
		protocol.LENWB,
		protocol.AHBP,
		protocol.DP,
		protocol.PDP,
		protocol.TDP,
	}

	arena := sim.NewArena()
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for _, mk := range protos {
				p := mk()
				want, wantTrace, wantRec := runOnce(t, nil, net.G, p, sc.cfg, 0)
				for _, workers := range []int{1, 2, 8} {
					got, gotTrace, gotRec := runOnce(t, arena, net.G, mk(), sc.cfg, workers)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s workers=%d: Result diverged\n fast:   %+v\n oracle: %+v",
							p.Name(), workers, got, want)
					}
					if !reflect.DeepEqual(gotTrace, wantTrace) {
						i := firstTraceDiff(gotTrace, wantTrace)
						t.Errorf("%s workers=%d: trace diverged at event %d (fast %d / oracle %d events)",
							p.Name(), workers, i, len(gotTrace), len(wantTrace))
					}
					if !reflect.DeepEqual(gotRec, wantRec) {
						t.Errorf("%s workers=%d: run metrics diverged", p.Name(), workers)
					}
				}
			}
		})
	}
}

// runOnce runs p from node 0 with a trace recorder and a run record attached:
// on the production loop with the given arena and worker count, or, for
// workers == 0, on the oracle.
func runOnce(t *testing.T, a *sim.Arena, g *graph.Graph, p sim.Protocol, cfg sim.Config,
	workers int) (sim.Result, []obsv.TraceEvent, *obsv.RunRecord) {
	t.Helper()
	rec := &sim.Recorder{}
	metrics := obsv.NewRunRecord()
	cfg.Workers = workers
	cfg.Observer = rec
	cfg.Metrics = metrics
	var res sim.Result
	var err error
	if workers == 0 {
		res, err = sim.RunOracle(g, 0, p, cfg)
	} else {
		res, err = sim.RunWith(a, g, 0, p, cfg)
	}
	if err != nil {
		t.Fatalf("%s (workers=%d): %v", p.Name(), workers, err)
	}
	return res, rec.Events(), metrics
}

func firstTraceDiff(a, b []obsv.TraceEvent) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	return n
}

package sim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"adhocbcast/internal/fault"
	"adhocbcast/internal/geo"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/traffic"
	"adhocbcast/internal/view"
)

// sessionSpecs converts a generated traffic plan to the simulator's session
// list.
func sessionSpecs(t *testing.T, plan *traffic.Plan, n int) []sim.SessionSpec {
	t.Helper()
	if err := plan.Validate(n); err != nil {
		t.Fatalf("traffic plan: %v", err)
	}
	specs := make([]sim.SessionSpec, len(plan.Messages))
	for i, m := range plan.Messages {
		specs[i] = sim.SessionSpec{Source: m.Source, At: m.At}
	}
	return specs
}

// TestTrafficFastMatchesOracle extends the event-loop differential proof to
// multi-session traffic runs: for every scenario — clean concurrency, the
// contention MAC (with and without queue caps, both drop policies, NACK
// recovery under contention, the -ext load sweep's combination), the legacy
// collision model, loss, and faults — the production loop at worker counts
// 1, 2, and 8 must reproduce the oracle bit-for-bit: identical TrafficResult, identical event trace (sessions, MAC
// queue events, and all), identical run metrics.
func TestTrafficFastMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net, err := geo.Generate(geo.Config{N: 60, AvgDegree: 6}, rng)
	if err != nil {
		t.Fatalf("generate network: %v", err)
	}
	plan, err := fault.NewPlan(net.G, fault.Params{
		CrashFraction: 0.10,
		ChurnFraction: 0.10,
		LinkFraction:  0.10,
		Protect:       []int{0},
	}, 11)
	if err != nil {
		t.Fatalf("fault plan: %v", err)
	}
	poisson, err := traffic.Poisson(traffic.Config{N: 60, Sources: 6, Rate: 0.25, Horizon: 80, Seed: 42})
	if err != nil {
		t.Fatalf("poisson plan: %v", err)
	}
	bursts, err := traffic.Bursts(traffic.Config{N: 60, Sources: 4, Rate: 0.25, Horizon: 80, Seed: 43})
	if err != nil {
		t.Fatalf("burst plan: %v", err)
	}
	steady := sessionSpecs(t, poisson, 60)
	bursty := sessionSpecs(t, bursts, 60)

	scenarios := []struct {
		name     string
		sessions []sim.SessionSpec
		cfg      sim.Config
	}{
		{"clean", steady, sim.Config{Hops: 2, Metric: view.MetricDegree, Seed: 1}},
		{"carrier-sense", steady, sim.Config{Hops: 2, CarrierSense: true, Seed: 5}},
		{"cs-bursts", bursty, sim.Config{Hops: 2, CarrierSense: true, Seed: 9}},
		{"cs-queue-tail", bursty, sim.Config{Hops: 2, CarrierSense: true, TxQueueCap: 2, Seed: 2}},
		{"cs-nack", steady, sim.Config{Hops: 2, CarrierSense: true, NACKRecovery: true, Seed: 3}},
		// What experiments.Load runs: queue cap at its default, NACK recovery.
		{"cs-load", steady, sim.Config{Hops: 2, CarrierSense: true, TxQueueCap: 8, NACKRecovery: true, Seed: 7}},
		{"legacy-collisions", steady, sim.Config{Hops: 2, Collisions: true, TxJitter: 0.4, Seed: 4}},
		{"loss", steady, sim.Config{Hops: 2, LossRate: 0.3, Seed: 6}},
		{"cs-faults", steady, sim.Config{Hops: 2, CarrierSense: true, Faults: plan, Seed: 8}},
	}
	protos := []func() sim.Protocol{
		protocol.Flooding,
		func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) },
		func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffRandom) },
		func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffDegree) },
		protocol.NeighborDesignatingFR,
		protocol.AHBP,
	}

	arena := sim.NewArena()
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for _, mk := range protos {
				name := mk().Name()
				want, wantTrace, wantRec := runTrafficOnce(t, nil, net, sc.sessions, mk, sc.cfg, 0)
				for _, workers := range []int{1, 2, 8} {
					got, gotTrace, gotRec := runTrafficOnce(t, arena, net, sc.sessions, mk, sc.cfg, workers)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s workers=%d: TrafficResult diverged\n fast:   %+v\n oracle: %+v",
							name, workers, got, want)
					}
					if !reflect.DeepEqual(gotTrace, wantTrace) {
						i := firstTraceDiff(gotTrace, wantTrace)
						t.Errorf("%s workers=%d: trace diverged at event %d (fast %d / oracle %d events)",
							name, workers, i, len(gotTrace), len(wantTrace))
					}
					if !reflect.DeepEqual(gotRec, wantRec) {
						t.Errorf("%s workers=%d: run metrics diverged", name, workers)
					}
				}
			}
		})
	}
}

// runTrafficOnce is runOnce for traffic runs: workers == 0 selects the oracle.
func runTrafficOnce(t *testing.T, a *sim.Arena, net *geo.Network, sessions []sim.SessionSpec,
	mk func() sim.Protocol, cfg sim.Config, workers int) (sim.TrafficResult, []obsv.TraceEvent, *obsv.RunRecord) {
	t.Helper()
	rec := &sim.Recorder{}
	metrics := obsv.NewRunRecord()
	cfg.Workers = workers
	cfg.Observer = rec
	cfg.Metrics = metrics
	var res sim.TrafficResult
	var err error
	if workers == 0 {
		res, err = sim.RunTrafficOracle(net.G, sessions, mk, cfg)
	} else {
		res, err = sim.RunTrafficWith(a, net.G, sessions, mk, cfg)
	}
	if err != nil {
		t.Fatalf("traffic run (workers=%d): %v", workers, err)
	}
	return res, rec.Events(), metrics
}

package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"adhocbcast/internal/fault"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/hello"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// The restart experiments measure crash-recovery degradation: a fraction of
// the nodes is SIGKILLed mid-broadcast and comes back after a fixed outage
// window (a down interval in the fault plan, not a permanent crash), on top
// of the same 10% lossy channel the crash sweeps use. Unlike the crash
// sweeps, every node is reachable again by the end of the run, so delivery is
// scored against the whole network: what the curves show is how much of a
// wave a restarting node permanently misses, and how much of that the NACK
// recovery layer and the dynamic-hello conservative hold claw back. This is
// the simulation face of the process-kill chaos harness
// (internal/runtime/chaos); docs/recovery.md connects the two.

// restartOutage is the length of one down window in transmission slots: long
// enough that an un-recovered pruning wave has passed when the node returns,
// short enough that the NACK layer's retries are still in flight.
const restartOutage = 5.0

// restartVariants are the curves of a restart figure: a protocol plus the
// recovery machinery layered on it. The "+Hold" curve's BeaconedViews is a
// template: restartSweep fills in each replicate's beacon-loss schedule.
func restartVariants() []variant {
	frb := func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffRandom) }
	return []variant{
		{label: "Flooding", cfg: sim.Config{Hops: 2}, make: protocol.Flooding},
		{label: "Generic-FR", cfg: sim.Config{Hops: 2}, make: func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }},
		{label: "Generic-FRB+NACK", cfg: sim.Config{Hops: 2, NACKRecovery: true}, make: frb},
		{label: "Generic-FRB+NACK+Hold", cfg: sim.Config{Hops: 2, NACKRecovery: true, Views: sim.BeaconedViews{}}, make: frb},
	}
}

// restartSeed derives the kill-schedule seed for one (replication, sweep
// value) cell. The variant is deliberately excluded: every curve sees the
// same networks, sources, and restart schedules (common random numbers).
func restartSeed(base int64, n, d, rep, permille int) int64 {
	return deriveSeed("restart", base, n, d, rep, permille)
}

// restartPlan builds one replicate's kill schedule: a rng-chosen fraction of
// the nodes (source protected) each goes down once, at a uniform time in the
// first 10 slots, for restartOutage slots.
func restartPlan(g *graph.Graph, source int, frac float64, seed int64) (*fault.Plan, error) {
	n := g.N()
	rng := rand.New(rand.NewSource(seed))
	plan := fault.NewEmptyPlan(n)
	k := int(math.Round(frac * float64(n)))
	placed := 0
	for _, v := range rng.Perm(n) {
		if placed == k {
			break
		}
		if v == source {
			continue
		}
		from := rng.Float64() * 10
		plan.AddNodeDown(v, fault.Interval{From: from, To: from + restartOutage})
		placed++
	}
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	return plan, nil
}

// RestartDelivery sweeps the restart fraction: X is the percentage of nodes
// that go down for one outage window mid-broadcast, and the series report the
// delivery ratio over all nodes (everyone is back up by the end). Flooding's
// redundancy and long lossy-channel tail reach most returning nodes; the
// pruned waves are gone by the time a node returns, and the NACK layer plus
// the conservative hold recover part of the gap.
func RestartDelivery(rc RunConfig) (Figure, error) {
	return restartSweep(rc, "RS1",
		"Crash-recovery: delivery vs restart fraction (n=100, 10% loss)",
		"delivery %",
		func(res sim.Result, rec *sim.Recorder) float64 { return 100 * res.DeliveryRatio() })
}

// RestartLatency is the companion cost curve of RestartDelivery: the mean
// first-delivery latency across the nodes that did deliver. Restart survivors
// that catch the wave only through recovery retransmissions deliver late, so
// the curve rises with the restart fraction — the price of the delivery the
// recovery machinery buys back.
func RestartLatency(rc RunConfig) (Figure, error) {
	return restartSweep(rc, "RS2",
		"Crash-recovery: mean delivery latency vs restart fraction (n=100, 10% loss)",
		"mean latency (slots)",
		func(res sim.Result, rec *sim.Recorder) float64 { return rec.MeanDeliveryLatency() })
}

func restartSweep(rc RunConfig, id, title, unit string, metric func(sim.Result, *sim.Recorder) float64) (Figure, error) {
	rc = rc.withDefaults()
	for _, frac := range rc.RestartRates {
		if !(frac >= 0 && frac <= 1) {
			return Figure{}, fmt.Errorf("restart fraction %v outside [0,1]", frac)
		}
	}
	pcts := percents(rc.RestartRates)
	return rc.paramSweep(id, title, unit, "restart", pcts, restartVariants(), func(v variant, d, k int) sampleFunc {
		return func(i int, sink *traceSink) (float64, error) {
			w, seed, err := rc.workload(100, d, i)
			if err != nil {
				return 0, err
			}
			plan, err := restartPlan(w.net.G, w.source, rc.RestartRates[k], restartSeed(rc.Seed, 100, d, i, pcts[k]*10))
			if err != nil {
				return 0, err
			}
			rec := &sim.Recorder{}
			cfg := v.cfg
			cfg.Seed = seed + 1
			cfg.LossRate = crashAmbientLoss
			cfg.Faults = plan
			cfg.Observer = rec
			if _, ok := cfg.Views.(sim.BeaconedViews); ok {
				// The dynamic-hello staleness schedule is a pure function of
				// its own seed (see internal/hello), so every replicate sees a
				// different beacon-loss pattern but reruns are bit-identical.
				cfg.Views = sim.BeaconedViews{Hello: hello.Dynamic{Interval: 2, Expiry: 2.5, LossRate: 0.2, Seed: seed}}
			}
			res, err := sink.run(i, w, w.net.G, v.make(), cfg, nil)
			if err != nil {
				return 0, err
			}
			return metric(res, rec), nil
		}
	})
}

package experiments

import (
	"adhocbcast/internal/fault"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// The degradation experiments quantify how gracefully each point of the
// generic framework's design space survives hostile conditions — the
// Section 1 motivation the paper's collision-free static evaluation leaves
// unmeasured. Crashed nodes partition the network, so delivery is scored
// against the nodes still reachable from the source (a partition is a
// workload property, not a protocol failure); the NACK recovery layer is
// measured as an overlay on the most aggressive pruner.

// crashAmbientLoss is the background per-receipt loss rate of the crash
// sweeps. Crashes alone drop copies silently — nothing is overheard, so
// recovery has nothing to react to; a lossy channel underneath is both the
// realistic companion condition and what lets the NACK layer show its value
// alongside the crash-induced degradation.
const crashAmbientLoss = 0.1

// degradeVariants are the curves of a degradation figure: a protocol plus the
// recovery setting layered on it.
func degradeVariants() []variant {
	frb := func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffRandom) }
	return []variant{
		{label: "Flooding", cfg: sim.Config{Hops: 2}, make: protocol.Flooding},
		{label: "Generic-FR", cfg: sim.Config{Hops: 2}, make: func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }},
		{label: "Generic-FRB", cfg: sim.Config{Hops: 2}, make: frb},
		{label: "Generic-FRB+NACK", cfg: sim.Config{Hops: 2, NACKRecovery: true}, make: frb},
	}
}

// degradeSeed derives the fault-plan seed for one (replication, sweep value)
// cell. The variant is deliberately excluded: every curve of a figure sees
// the same networks, sources, and fault plans (common random numbers).
func degradeSeed(base int64, n, d, rep, permille int) int64 {
	return deriveSeed("degrade", base, n, d, rep, permille)
}

// CrashDegradation sweeps the crash fraction: X is the percentage of nodes
// that fail-stop mid-broadcast (uniform crash times over the first 10
// slots, source protected) on top of a 10% lossy channel, and the series
// report the reachability-aware delivery ratio. Flooding's redundancy keeps
// it near-perfect; the pruning protocols' sparse forward sets lose whole
// subtrees when a forwarder dies; the NACK layer claws back the
// loss-induced part of the gap.
func CrashDegradation(rc RunConfig) (Figure, error) {
	return crashSweep(rc, "D1",
		"Degradation: reachable delivery vs crash fraction (n=100, 10% loss)",
		"reachable delivery %",
		func(res sim.Result) float64 { return 100 * res.ReachableDeliveryRatio() })
}

// CrashForwardRatio is the companion cost curve of CrashDegradation: the
// fraction of delivered nodes that forwarded. It shows what the delivery
// gap buys — flooding pays with (nearly) every node that hears the packet
// retransmitting, while the pruners keep their forward sets small even as
// crashes shrink the network under them. Delivered (not reachable) is the
// denominator because only nodes holding the packet can forward; nodes cut
// off mid-broadcast may have received and forwarded before the cut.
func CrashForwardRatio(rc RunConfig) (Figure, error) {
	return crashSweep(rc, "D2",
		"Degradation: forward ratio vs crash fraction (n=100, 10% loss)",
		"forward % of delivered",
		func(res sim.Result) float64 {
			if res.Delivered == 0 {
				return 0
			}
			return 100 * float64(res.ForwardCount()) / float64(res.Delivered)
		})
}

func crashSweep(rc RunConfig, id, title, unit string, metric func(sim.Result) float64) (Figure, error) {
	rc = rc.withDefaults()
	pcts := percents(rc.CrashFractions)
	return rc.paramSweep(id, title, unit, "crash", pcts, degradeVariants(), func(v variant, d, k int) sampleFunc {
		return func(i int, sink *traceSink) (float64, error) {
			w, seed, err := rc.workload(100, d, i)
			if err != nil {
				return 0, err
			}
			plan, err := fault.NewPlan(w.net.G, fault.Params{
				CrashFraction: rc.CrashFractions[k],
				Protect:       []int{w.source},
			}, degradeSeed(rc.Seed, 100, d, i, pcts[k]*10))
			if err != nil {
				return 0, err
			}
			cfg := v.cfg
			cfg.Seed = seed + 1
			cfg.LossRate = crashAmbientLoss
			cfg.Faults = plan
			res, err := sink.run(i, w, w.net.G, v.make(), cfg, nil)
			if err != nil {
				return 0, err
			}
			return metric(res), nil
		}
	})
}

// LossDegradation sweeps the per-receipt loss rate with no faults: X is the
// loss percentage, series report the delivery ratio. This is the cleanest
// view of the recovery layer: with every drop overheard, the NACK variant
// buys back most of what pruning loses to the channel.
func LossDegradation(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	return rc.paramSweep("D3", "Degradation: delivery vs loss rate (n=100)", "delivery %",
		"loss", percents(rc.LossRates), degradeVariants(), func(v variant, d, k int) sampleFunc {
			return func(i int, sink *traceSink) (float64, error) {
				w, seed, err := rc.workload(100, d, i)
				if err != nil {
					return 0, err
				}
				cfg := v.cfg
				cfg.Seed = seed + 1
				cfg.LossRate = rc.LossRates[k]
				res, err := sink.run(i, w, w.net.G, v.make(), cfg, nil)
				if err != nil {
					return 0, err
				}
				return 100 * res.DeliveryRatio(), nil
			}
		})
}

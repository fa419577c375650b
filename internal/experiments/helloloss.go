package experiments

import (
	"adhocbcast/internal/hello"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// The hello-loss experiments measure the imperfect-knowledge pipeline end to
// end: views are assembled by a lossy hello exchange (every node holds a
// different, possibly incomplete graph), the simulator runs each node's
// pruning decision on its own view, and the conservative fallback — nodes
// that can prove their view incomplete refuse non-forward status — is
// measured as an overlay. This quantifies the paper's Section 4.3 caveat that
// the coverage condition is only safe when the k-hop views are right: with
// k = Hops = 2 rounds of lossless hellos the sweep's zero point reproduces
// the paper's setup exactly, and every further point degrades only the
// knowledge, never the channel the broadcast itself uses.

// helloRounds is the number of hello exchange rounds, matching the 2-hop
// views every other experiment uses.
const helloRounds = 2

// helloVariants are the curves of a hello-loss figure: a protocol plus the
// conservative-fallback setting layered on it.
func helloVariants() []variant {
	fr := func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }
	frb := func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffRandom) }
	return []variant{
		// Flooding ignores views entirely: the flat control line separating
		// knowledge-induced losses from channel effects (there are none).
		{label: "Flooding", cfg: sim.Config{Hops: 2}, make: protocol.Flooding},
		{label: "Generic-FR", cfg: sim.Config{Hops: 2}, make: fr},
		{label: "Generic-FR+CF", cfg: sim.Config{Hops: 2, Views: sim.PerNodeViews{Hold: true}}, make: fr},
		{label: "Generic-FRB", cfg: sim.Config{Hops: 2}, make: frb},
		{label: "Generic-FRB+CF", cfg: sim.Config{Hops: 2, Views: sim.PerNodeViews{Hold: true}}, make: frb},
	}
}

// helloSeed derives the hello-exchange seed for one (replication, sweep
// value) cell. The variant is deliberately excluded: every curve sees the
// same networks, sources, and hello loss patterns (common random numbers),
// so with and without fallback differ only in the decisions.
func helloSeed(base int64, n, d, rep, permille int) int64 {
	return deriveSeed("helloloss", base, n, d, rep, permille)
}

// HelloLossDelivery sweeps the hello loss rate: X is the per-receiver
// probability (in percent) that one hello broadcast is lost during view
// formation, and the series report the delivery ratio. Pruning on incomplete
// views strands nodes; the conservative fallback recovers most of the lost
// delivery by refusing non-forward status at provably incomplete nodes.
func HelloLossDelivery(rc RunConfig) (Figure, error) {
	return helloSweep(rc, "H1",
		"Imperfect views: delivery vs hello loss rate (n=100, 2 rounds)",
		"delivery %",
		func(res sim.Result, _ *sim.Recorder) float64 { return 100 * res.DeliveryRatio() })
}

// HelloLossForwardRatio is the companion cost curve of HelloLossDelivery: the
// fraction of delivered nodes that forwarded. The fallback's recovered
// delivery is paid for here — every node that knows its view is incomplete
// forwards, so the forward ratio climbs toward flooding as hello loss rises.
func HelloLossForwardRatio(rc RunConfig) (Figure, error) {
	return helloSweep(rc, "H2",
		"Imperfect views: forward ratio vs hello loss rate (n=100, 2 rounds)",
		"forward % of delivered",
		func(res sim.Result, _ *sim.Recorder) float64 {
			if res.Delivered == 0 {
				return 0
			}
			return 100 * float64(res.ForwardCount()) / float64(res.Delivered)
		})
}

// HelloLossLatency completes the trade-off picture: mean first-delivery
// latency (in transmission slots, over the nodes actually reached) vs hello
// loss rate. Wrong views can shorten apparent latency by stranding the far
// nodes; the fallback's extra transmissions restore reach without a backoff
// cost at FR timing.
func HelloLossLatency(rc RunConfig) (Figure, error) {
	return helloSweep(rc, "H3",
		"Imperfect views: mean delivery latency vs hello loss rate (n=100, 2 rounds)",
		"mean latency (slots)",
		func(_ sim.Result, rec *sim.Recorder) float64 { return rec.MeanDeliveryLatency() })
}

// helloSweep runs one hello-loss figure. Every replicate regenerates the
// exchange from its own seed, so results are a pure function of (Seed, n, d,
// rep, rate) — bit-identical across -parallel settings and repeated runs.
func helloSweep(rc RunConfig, id, title, unit string, metric func(sim.Result, *sim.Recorder) float64) (Figure, error) {
	rc = rc.withDefaults()
	pcts := percents(rc.HelloLossRates)
	return rc.paramSweep(id, title, unit, "helloloss", pcts, helloVariants(), func(v variant, d, k int) sampleFunc {
		return func(i int, sink *traceSink) (float64, error) {
			w, seed, err := rc.workload(100, d, i)
			if err != nil {
				return 0, err
			}
			views, err := hello.Exchange(w.net.G, hello.Config{
				Rounds:   helloRounds,
				LossRate: rc.HelloLossRates[k],
				Seed:     helloSeed(rc.Seed, 100, d, i, pcts[k]*10),
			})
			if err != nil {
				return 0, err
			}
			rec := &sim.Recorder{}
			cfg := v.cfg
			cfg.Seed = seed + 1
			cfg.Observer = rec
			pv, _ := v.cfg.Views.(sim.PerNodeViews) // the variant says whether it holds
			cfg.Views = sim.PerNodeViews{Views: views, Hold: pv.Hold}
			// When tracing is on, export the view-divergence counters
			// alongside the run record. Only the driver can fill these — the
			// simulator never sees the ground truth.
			res, err := sink.run(i, w, w.net.G, v.make(), cfg, func(rr *obsv.RunRecord) error {
				div, err := views.Divergence(w.net.G)
				if err != nil {
					return err
				}
				rr.ViewMissingLinks = div.MissingLinks
				rr.ViewPhantomLinks = div.PhantomLinks
				return nil
			})
			if err != nil {
				return 0, err
			}
			return metric(res, rec), nil
		}
	})
}

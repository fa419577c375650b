package experiments

import (
	"fmt"

	"adhocbcast/internal/cds"
	"adhocbcast/internal/cluster"
	"adhocbcast/internal/core"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/mobility"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/view"
)

// The experiments in this file go beyond the paper's figures: they quantify
// the claims its discussion sections make without plots (mobility tolerance,
// collision relief via jitter) and ablate the design choices called out in
// DESIGN.md (piggyback depth, backoff window, the visited-union assumption).
// Their X axes are parameter values rather than network sizes.

// Mobility reproduces the Section 1 mobility claim: nodes move between the
// hello exchange and the broadcast, so protocols decide on stale views while
// packets propagate over the actual topology. The series report the average
// delivery ratio (in percent) of algorithms with increasing redundancy as a
// function of the maximum per-node movement (in area units). Flooding is the
// upper bound; more aggressive pruning degrades faster.
func Mobility(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	steps := []int{0, 1, 2, 3, 5, 8}
	variants := []variant{
		{label: "Flooding", make: protocol.Flooding},
		{label: "SBA", make: protocol.SBA},
		{label: "Generic-FRB", make: func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffRandom) }},
		{label: "Generic-FR", make: func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }},
	}
	return rc.paramSweep("M1", "Delivery ratio under stale views vs node movement", "delivery %",
		"step", steps, variants, func(v variant, d, k int) sampleFunc {
			return func(i int, sink *traceSink) (float64, error) {
				// Perturbation draws live on their own seed-derived stream
				// (see mobility.Perturbed), so the stale network and source
				// come from the shared workload cache: every movement step of
				// every variant perturbs the same replication-i network.
				w, seed, err := rc.workload(100, d, i)
				if err != nil {
					return 0, err
				}
				actual := mobility.Perturbed(w.net, 100, float64(steps[k]), mobilitySeed(rc.Seed, d, i, steps[k]))
				res, err := sink.run(i, actual.G, w.source, v.make(), sim.Config{
					Hops:  2,
					Views: sim.SharedViews{Topology: w.net.G},
					Seed:  seed + 1,
				}, nil)
				if err != nil {
					return 0, err
				}
				return 100 * res.DeliveryRatio(), nil
			}
		})
}

// Reliability quantifies the broadcast storm discussion: under a collision
// MAC, synchronized retransmissions destroy each other; a small forwarding
// jitter restores delivery, and pruning protocols suffer far less than
// flooding to begin with. Series report delivery ratio (%) vs jitter window.
func Reliability(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	jitters := []int{0, 1, 2, 4}
	variants := []variant{
		{label: "Flooding", make: protocol.Flooding},
		{label: "Generic-FR", make: func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }},
	}
	return rc.paramSweep("R1", "Delivery ratio under a collision MAC vs forwarding jitter", "delivery %",
		"jitter", jitters, variants, func(v variant, d, k int) sampleFunc {
			return func(i int, sink *traceSink) (float64, error) {
				// Unlike every other sweep, each jitter value draws its own
				// networks: the jitter is folded into the workload seed. The
				// committed tables and the grid cache pin this derivation, so
				// it stays — and is why this sample bypasses rc.workload.
				seed := workloadSeed(rc.Seed, 100, d, i) ^ int64(jitters[k]<<40)
				w, err := workloads.get(workloadKey{seed: seed, n: 100, d: d})
				if err != nil {
					return 0, err
				}
				res, err := sink.run(i, w.net.G, w.source, v.make(), sim.Config{
					Hops:       2,
					Collisions: true,
					TxJitter:   float64(jitters[k]),
					Seed:       seed + 1,
				}, nil)
				if err != nil {
					return 0, err
				}
				return 100 * res.DeliveryRatio(), nil
			}
		})
}

// PiggybackAblation sweeps the broadcast-state depth h (Section 4.3): the
// number of recently visited nodes carried in the packet. The paper observes
// that extra piggybacked history has little impact; this ablation measures
// it. X is h; -1 disables piggybacking entirely (snooping only).
func PiggybackAblation(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	depths := []int{-1, 1, 2, 4, 8}
	return rc.figure("A1", "Ablation: forward nodes vs piggyback depth h (Generic-FR)", "",
		rc.perDegree("d=%d, n=100, 2-hop", func(d int) []curveSpec {
			s := curveSpec{label: "Generic-FR"}
			for _, h := range depths {
				cl := rc.sizeCell("A1", 100, d, variant{
					label: fmt.Sprintf("h=%d", h),
					cfg:   sim.Config{Hops: 2, PiggybackDepth: h},
					make:  func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) },
				})
				cl.x = max(h, 0)
				s.cells = append(s.cells, cl)
			}
			return []curveSpec{s}
		}))
}

// BackoffAblation sweeps the FRB/FRBD backoff window (in transmission
// slots), documenting the calibration of DESIGN.md: the benefit of waiting
// only materializes once the window spans several transmission delays.
func BackoffAblation(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	windows := []int{1, 2, 4, 8, 16}
	return rc.figure("A2", "Ablation: forward nodes vs backoff window (n=100)", "",
		rc.perDegree("d=%d, n=100, 2-hop", func(d int) []curveSpec {
			return curvesOf(timingVariants(protocol.TimingBackoffRandom, protocol.TimingBackoffDegree), len(windows),
				func(timing variant, k int) cell {
					cl := rc.sizeCell("A2/"+timing.label, 100, d, variant{
						label: fmt.Sprintf("w=%d", windows[k]),
						cfg:   sim.Config{Hops: 2, BackoffWindow: float64(windows[k])},
						make:  timing.make,
					})
					cl.x = windows[k]
					return cl
				})
		}))
}

// timingVariants returns one 2-hop generic-protocol variant per timing
// policy, labelled by the policy name.
func timingVariants(timings ...protocol.Timing) []variant {
	variants := make([]variant, len(timings))
	for ti, timing := range timings {
		variants[ti] = variant{
			label: timing.String(),
			cfg:   sim.Config{Hops: 2},
			make:  func() sim.Protocol { return protocol.Generic(timing) },
		}
	}
	return variants
}

// VisitedUnionAblation contrasts the generic coverage condition with and
// without the visited-nodes-are-connected assumption (the Figure 6(b)
// mechanism), measuring how much pruning the assumption is worth. X is the
// network size.
func VisitedUnionAblation(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	withUnion := func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }
	withoutUnion := func() sim.Protocol {
		return protocol.New(protocol.Options{
			Name:      "Generic-NoUnion",
			Timing:    protocol.TimingFirstReceipt,
			Selection: protocol.SelfPruning,
			Covered: func(st *sim.NodeState, ev *core.Evaluator) bool {
				return ev.CoveredWithoutVisitedUnion(st.View)
			},
			SelfPrune: true,
		})
	}
	variants := []variant{
		{label: "with union", cfg: sim.Config{Hops: 2}, make: withUnion},
		{label: "without union", cfg: sim.Config{Hops: 2}, make: withoutUnion},
	}
	var panels []panelSpec
	for _, d := range rc.Degrees {
		panels = append(panels, rc.sizePanel("A3", fmt.Sprintf("d=%d", d), d, variants))
	}
	return rc.figure("A3", "Ablation: the visited-union assumption (Generic-FR, 2-hop)", "", panels)
}

// Clustering compares backbone sizes in dense networks (the Section 2 /
// Section 6 density discussion): the raw lowest-id cluster backbone (heads
// plus gateways), the same backbone after coverage-condition reduction, and
// the distributed generic static backbone, across densities. X is the
// average degree d at n=100.
func Clustering(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	degrees := []int{6, 12, 18, 24, 30}
	type method struct {
		label string
		size  func(g *graph.Graph) (int, error)
	}
	methods := []method{
		{label: "Cluster backbone", size: func(g *graph.Graph) (int, error) {
			return len(cluster.LowestID(g).Backbone(g)), nil
		}},
		{label: "Cluster+reduce", size: func(g *graph.Graph) (int, error) {
			return len(cds.Reduce(g, cluster.LowestID(g).Backbone(g))), nil
		}},
		{label: "Generic static", size: func(g *graph.Graph) (int, error) {
			base := view.BasePriorities(g, view.MetricID)
			ev := core.NewEvaluator(g.N())
			count := 0
			for v := 0; v < g.N(); v++ {
				lv := view.NewLocal(g, v, 2, base)
				if !ev.Covered(lv) {
					count++
				}
			}
			return count, nil
		}},
		{label: "Guha-Khuller", size: func(g *graph.Graph) (int, error) {
			set, err := cds.GuhaKhuller(g)
			return len(set), err
		}},
	}
	p := panelSpec{title: "n=100"}
	for _, m := range methods {
		s := curveSpec{label: m.label}
		for _, d := range degrees {
			s.cells = append(s.cells, cell{
				label: fmt.Sprintf("C1/%s/d=%d", m.label, d),
				x:     d,
				// No simulation runs, so under TraceDir a cluster point
				// exports a sealed file with no records.
				sample: func(i int, _ *traceSink) (float64, error) {
					w, _, err := rc.workload(100, d, i)
					if err != nil {
						return 0, err
					}
					size, err := m.size(w.net.G)
					return float64(size), err
				},
			})
		}
		p.curves = append(p.curves, s)
	}
	return rc.figure("C1", "Backbone sizes vs density (n=100)", "mean backbone size", []panelSpec{p})
}

// Latency quantifies the timing-policy delay discussion of Section 4.1:
// static and FR decisions add no end-to-end delay while the backoff
// policies trade completion time for fewer forward nodes. The series report
// the mean first-delivery latency across nodes (in transmission slots) per
// timing policy; X is the network size.
func Latency(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	timings := timingVariants(protocol.TimingStatic, protocol.TimingFirstReceipt,
		protocol.TimingBackoffRandom, protocol.TimingBackoffDegree)
	return rc.figure("L1", "Mean first-delivery latency vs timing policy", "mean latency (slots)",
		rc.perDegree("d=%d, 2-hop", func(d int) []curveSpec {
			return curvesOf(timings, len(rc.Sizes), func(v variant, k int) cell {
				n := rc.Sizes[k]
				return cell{
					label: fmt.Sprintf("L1/%s/n=%d/d=%d", v.label, n, d),
					x:     n,
					sample: func(i int, sink *traceSink) (float64, error) {
						w, seed, err := rc.workload(n, d, i)
						if err != nil {
							return 0, err
						}
						rec := &sim.Recorder{}
						cfg := v.cfg
						cfg.Seed = seed + 1
						cfg.Observer = rec
						res, err := sink.run(i, w.net.G, w.source, v.make(), cfg, nil)
						if err != nil {
							return 0, err
						}
						if !res.FullDelivery() {
							return 0, fmt.Errorf("latency: delivered %d/%d", res.Delivered, res.N)
						}
						return rec.MeanDeliveryLatency(), nil
					},
				}
			})
		}))
}

// ExtensionByID dispatches the extension experiments by name.
func ExtensionByID(id string, rc RunConfig) (Figure, error) {
	switch id {
	case "cluster":
		return Clustering(rc)
	case "latency":
		return Latency(rc)
	case "mobility":
		return Mobility(rc)
	case "reliability":
		return Reliability(rc)
	case "piggyback":
		return PiggybackAblation(rc)
	case "backoff":
		return BackoffAblation(rc)
	case "visitedunion":
		return VisitedUnionAblation(rc)
	case "crash":
		return CrashDegradation(rc)
	case "crashforward":
		return CrashForwardRatio(rc)
	case "loss":
		return LossDegradation(rc)
	case "helloloss":
		return HelloLossDelivery(rc)
	case "hellolossforward":
		return HelloLossForwardRatio(rc)
	case "hellolosslatency":
		return HelloLossLatency(rc)
	case "restart":
		return RestartDelivery(rc)
	case "restartlatency":
		return RestartLatency(rc)
	default:
		return Figure{}, fmt.Errorf("experiments: unknown extension %q (valid: %v)", id, AllExtensionIDs())
	}
}

// AllExtensionIDs lists the extension experiments.
func AllExtensionIDs() []string {
	return []string{"mobility", "reliability", "piggyback", "backoff", "visitedunion", "cluster", "latency", "crash", "crashforward", "loss", "helloloss", "hellolossforward", "hellolosslatency", "restart", "restartlatency"}
}

// mobilitySeed derives the perturbation seed for one mobility replication.
// The variant label is deliberately excluded (every series sees the same
// movements) while the step is included, so different sweep points move the
// shared workload network differently.
func mobilitySeed(base int64, d, rep, step int) int64 {
	return deriveSeed("mobility", base, d, rep, step)
}

package experiments

import (
	"fmt"
	"strings"

	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/view"
)

// Figure10 reproduces the timing-options experiment: Static vs FR vs FRB vs
// FRBD generic self-pruning with 2-hop views and ID priority.
func Figure10(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	cfg := sim.Config{Hops: 2, Metric: view.MetricID}
	mk := func(t protocol.Timing, label string) variant {
		return variant{label: label, cfg: cfg, make: func() sim.Protocol { return protocol.Generic(t) }}
	}
	variants := []variant{
		mk(protocol.TimingStatic, "Static"),
		mk(protocol.TimingFirstReceipt, "FR"),
		mk(protocol.TimingBackoffRandom, "FRB"),
		mk(protocol.TimingBackoffDegree, "FRBD"),
	}
	return buildFigure(rc, "10", "Broadcast algorithms with different timing options",
		[]int{2}, variants)
}

// Figure11 reproduces the selection-options experiment: self-pruning (SP),
// neighbor-designating (ND), and the MaxDeg / MinPri hybrids, first-receipt,
// 2-hop views, ID priority.
func Figure11(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	cfg := sim.Config{Hops: 2, Metric: view.MetricID}
	variants := []variant{
		{label: "SP", cfg: cfg, make: protocol.SelfPruningFR},
		{label: "ND", cfg: cfg, make: protocol.NeighborDesignatingFR},
		{label: "MaxDeg", cfg: cfg, make: protocol.HybridMaxDeg},
		{label: "MinPri", cfg: cfg, make: protocol.HybridMinPri},
	}
	return buildFigure(rc, "11", "Dynamic (first-receipt) algorithms with different selection options",
		[]int{2}, variants)
}

// Figure12 reproduces the space experiment: generic first-receipt
// self-pruning under 2-, 3-, 4-, 5-hop and global views, ID priority.
func Figure12(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	var variants []variant
	for _, k := range []int{2, 3, 4, 5} {
		variants = append(variants, variant{
			label: fmt.Sprintf("%d-hop", k),
			cfg:   sim.Config{Hops: k, Metric: view.MetricID},
			make:  func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) },
		})
	}
	variants = append(variants, variant{
		label: "global",
		cfg:   sim.Config{Hops: 0, Metric: view.MetricID},
		make:  func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) },
	})
	return buildFigure(rc, "12", "Dynamic self-pruning algorithms based on different local views",
		nil, variants)
}

// Figure13 reproduces the priority experiment: generic first-receipt
// self-pruning under ID, Degree and NCR priorities, 2-hop views.
func Figure13(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	var variants []variant
	for _, m := range []view.Metric{view.MetricID, view.MetricDegree, view.MetricNCR} {
		variants = append(variants, variant{
			label: m.String(),
			cfg:   sim.Config{Hops: 2, Metric: m},
			make:  func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) },
		})
	}
	return buildFigure(rc, "13", "Dynamic self-pruning algorithms using different priority values",
		nil, variants)
}

// Figure14 reproduces the static special-cases comparison: MPR, enhanced
// Span, Rule k and the generic static algorithm, with 2- and 3-hop views.
// All algorithms except MPR use NCR priority (Span's original
// configuration); MPR's relaxed forwarding rule stands in for its
// designating-time priority.
func Figure14(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	mkv := func(label string, mk func() sim.Protocol) variant {
		return variant{label: label, cfg: sim.Config{Metric: view.MetricNCR}, make: mk}
	}
	variants := []variant{
		mkv("MPR", protocol.MPR),
		mkv("Span", protocol.Span),
		mkv("Rule k", protocol.RuleK),
		mkv("Generic", func() sim.Protocol { return protocol.Generic(protocol.TimingStatic) }),
	}
	return buildFigure(rc, "14", "Static broadcast algorithms", []int{2, 3}, variants)
}

// Figure15 reproduces the first-receipt special-cases comparison: DP, PDP,
// LENWB and the generic FR algorithm, degree priority, 2- and 3-hop views.
func Figure15(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	mkv := func(label string, mk func() sim.Protocol) variant {
		return variant{label: label, cfg: sim.Config{Metric: view.MetricDegree}, make: mk}
	}
	variants := []variant{
		mkv("DP", protocol.DP),
		mkv("PDP", protocol.PDP),
		mkv("LENWB", protocol.LENWB),
		mkv("Generic", func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }),
	}
	return buildFigure(rc, "15", "First-receipt broadcast algorithms", []int{2, 3}, variants)
}

// Figure16 reproduces the first-receipt-with-backoff comparison: SBA vs the
// generic FRB algorithm, ID priority, 2- and 3-hop views.
func Figure16(rc RunConfig) (Figure, error) {
	rc = rc.withDefaults()
	mkv := func(label string, mk func() sim.Protocol) variant {
		return variant{label: label, cfg: sim.Config{Metric: view.MetricID}, make: mk}
	}
	variants := []variant{
		mkv("SBA", protocol.SBA),
		mkv("Generic", func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffRandom) }),
	}
	return buildFigure(rc, "16", "First-receipt-with-backoff broadcast algorithms", []int{2, 3}, variants)
}

// buildFigure describes and measures one paper figure: a panel per (degree,
// hop) pair. When hops is nil the variants carry their own view depths and
// panels are per degree only.
func buildFigure(rc RunConfig, id, title string, hops []int, variants []variant) (Figure, error) {
	var panels []panelSpec
	for _, d := range rc.Degrees {
		if len(hops) == 0 {
			panels = append(panels, rc.sizePanel("fig"+id, fmt.Sprintf("d=%d", d), d, variants))
			continue
		}
		for _, k := range hops {
			vs := make([]variant, len(variants))
			for vi, v := range variants {
				v.cfg.Hops = k
				vs[vi] = v
			}
			panels = append(panels, rc.sizePanel("fig"+id, fmt.Sprintf("d=%d, %d-hop", d, k), d, vs))
		}
	}
	return rc.figure(id, title, "", panels)
}

// registry lists every figure-type driver under its grid id, in table order:
// the paper's figures, then the extension experiments. The scale and load
// sweeps have row types of their own (ScaleRow, LoadRow), so they are not
// figures and not here.
var registry = []struct {
	id  string
	run func(RunConfig) (Figure, error)
}{
	{"fig10", Figure10}, {"fig11", Figure11}, {"fig12", Figure12}, {"fig13", Figure13},
	{"fig14", Figure14}, {"fig15", Figure15}, {"fig16", Figure16},
	{"ext:mobility", Mobility},
	{"ext:reliability", Reliability},
	{"ext:piggyback", PiggybackAblation},
	{"ext:backoff", BackoffAblation},
	{"ext:visitedunion", VisitedUnionAblation},
	{"ext:cluster", Clustering},
	{"ext:latency", Latency},
	{"ext:crash", CrashDegradation},
	{"ext:crashforward", CrashForwardRatio},
	{"ext:loss", LossDegradation},
	{"ext:helloloss", HelloLossDelivery},
	{"ext:hellolossforward", HelloLossForwardRatio},
	{"ext:hellolosslatency", HelloLossLatency},
	{"ext:restart", RestartDelivery},
	{"ext:restartlatency", RestartLatency},
}

// Driver returns the figure-type driver registered under a grid id —
// "fig10".."fig16" or "ext:<name>" — and whether there is one.
func Driver(id string) (func(RunConfig) (Figure, error), bool) {
	for _, d := range registry {
		if d.id == id {
			return d.run, true
		}
	}
	return nil, false
}

// AllFigureIDs lists the reproducible figures in paper order ("10".."16").
func AllFigureIDs() []string { return registryIDs("fig") }

// AllExtensionIDs lists the extension experiments in table order.
func AllExtensionIDs() []string { return registryIDs("ext:") }

// registryIDs lists the registry's ids that carry prefix, without it.
func registryIDs(prefix string) []string {
	var ids []string
	for _, d := range registry {
		if id, ok := strings.CutPrefix(d.id, prefix); ok {
			ids = append(ids, id)
		}
	}
	return ids
}

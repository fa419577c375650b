package experiments

import (
	"testing"

	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/stats"
	"adhocbcast/internal/view"
)

// TestPaperShapes is the qualitative regression suite: it asserts every
// ordering the paper's evaluation reports, with enough replications that the
// comparisons are stable (common random numbers across variants make the
// paired comparisons low-variance). A failure here means a change broke one
// of the reproduced results.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical shape suite")
	}
	rc := RunConfig{
		Replicate: stats.ReplicateOptions{MinRuns: 40, MaxRuns: 60, RelTol: 0.1},
		Seed:      42,
	}
	rc = rc.withDefaults()

	mean := func(t *testing.T, n, d int, cfg sim.Config, mk func() sim.Protocol) float64 {
		t.Helper()
		sum, err := rc.measure(rc.sizeCell("shape", n, d, variant{label: "shape", cfg: cfg, make: mk}))
		if err != nil {
			t.Fatal(err)
		}
		return sum.Mean
	}
	assertLess := func(t *testing.T, what string, a, b float64) {
		t.Helper()
		if a >= b {
			t.Errorf("%s: want %.2f < %.2f", what, a, b)
		}
	}

	cfg2 := sim.Config{Hops: 2, Metric: view.MetricID}
	gen := func(tm protocol.Timing) func() sim.Protocol {
		return func() sim.Protocol { return protocol.Generic(tm) }
	}

	t.Run("Figure10_Timing", func(t *testing.T) {
		t.Parallel()
		static := mean(t, 100, 6, cfg2, gen(protocol.TimingStatic))
		fr := mean(t, 100, 6, cfg2, gen(protocol.TimingFirstReceipt))
		frb := mean(t, 100, 6, cfg2, gen(protocol.TimingBackoffRandom))
		frbd := mean(t, 100, 6, cfg2, gen(protocol.TimingBackoffDegree))
		assertLess(t, "FR < Static", fr, static)
		assertLess(t, "FRB < FR", frb, fr)
		assertLess(t, "FRBD < FR", frbd, fr)
	})

	t.Run("Figure11_Selection_Sparse", func(t *testing.T) {
		t.Parallel()
		sp := mean(t, 100, 6, cfg2, protocol.SelfPruningFR)
		nd := mean(t, 100, 6, cfg2, protocol.NeighborDesignatingFR)
		maxDeg := mean(t, 100, 6, cfg2, protocol.HybridMaxDeg)
		minPri := mean(t, 100, 6, cfg2, protocol.HybridMinPri)
		// Paper: worst to best is MinPri, ND, SP, MaxDeg.
		assertLess(t, "ND < MinPri", nd, minPri)
		assertLess(t, "SP < ND", sp, nd)
		assertLess(t, "MaxDeg < SP", maxDeg, sp)
	})

	t.Run("Figure11_Selection_Dense", func(t *testing.T) {
		t.Parallel()
		sp := mean(t, 100, 18, cfg2, protocol.SelfPruningFR)
		nd := mean(t, 100, 18, cfg2, protocol.NeighborDesignatingFR)
		minPri := mean(t, 100, 18, cfg2, protocol.HybridMinPri)
		// Paper: at n=100 dense, ND is worse than MinPri, which is worse
		// than SP.
		assertLess(t, "MinPri < ND", minPri, nd)
		assertLess(t, "SP < MinPri", sp, minPri)
	})

	t.Run("Figure12_Space", func(t *testing.T) {
		t.Parallel()
		h2 := mean(t, 100, 6, sim.Config{Hops: 2}, gen(protocol.TimingFirstReceipt))
		h3 := mean(t, 100, 6, sim.Config{Hops: 3}, gen(protocol.TimingFirstReceipt))
		global := mean(t, 100, 6, sim.Config{Hops: 0}, gen(protocol.TimingFirstReceipt))
		assertLess(t, "3-hop < 2-hop", h3, h2)
		if global > h3 {
			t.Errorf("global (%.2f) worse than 3-hop (%.2f)", global, h3)
		}
		// "Not significantly worse": 2-hop within 10% of global.
		if h2 > global*1.10 {
			t.Errorf("2-hop (%.2f) more than 10%% above global (%.2f)", h2, global)
		}
	})

	t.Run("Figure13_Priority", func(t *testing.T) {
		t.Parallel()
		id := mean(t, 100, 6, sim.Config{Hops: 2, Metric: view.MetricID}, gen(protocol.TimingFirstReceipt))
		deg := mean(t, 100, 6, sim.Config{Hops: 2, Metric: view.MetricDegree}, gen(protocol.TimingFirstReceipt))
		ncr := mean(t, 100, 6, sim.Config{Hops: 2, Metric: view.MetricNCR}, gen(protocol.TimingFirstReceipt))
		assertLess(t, "Degree < ID", deg, id)
		if ncr > deg {
			t.Errorf("NCR (%.2f) worse than Degree (%.2f)", ncr, deg)
		}
	})

	t.Run("Figure14_Static", func(t *testing.T) {
		t.Parallel()
		cfg := sim.Config{Hops: 2, Metric: view.MetricNCR}
		mpr := mean(t, 100, 18, cfg, protocol.MPR)
		span := mean(t, 100, 18, cfg, protocol.Span)
		rulek := mean(t, 100, 18, cfg, protocol.RuleK)
		generic := mean(t, 100, 18, cfg, gen(protocol.TimingStatic))
		assertLess(t, "Span < MPR", span, mpr)
		assertLess(t, "Rule k < Span", rulek, span)
		assertLess(t, "Generic < Rule k", generic, rulek)
	})

	t.Run("Figure15_FirstReceipt", func(t *testing.T) {
		t.Parallel()
		cfg := sim.Config{Hops: 2, Metric: view.MetricDegree}
		dp := mean(t, 100, 18, cfg, protocol.DP)
		pdp := mean(t, 100, 18, cfg, protocol.PDP)
		tdp := mean(t, 100, 18, cfg, protocol.TDP)
		lenwb := mean(t, 100, 18, cfg, protocol.LENWB)
		generic := mean(t, 100, 18, cfg, gen(protocol.TimingFirstReceipt))
		assertLess(t, "PDP < DP", pdp, dp)
		assertLess(t, "TDP <= PDP", tdp, pdp*1.001)
		assertLess(t, "LENWB < PDP", lenwb, pdp)
		assertLess(t, "Generic <= LENWB", generic, lenwb*1.01)
	})

	t.Run("Figure16_Backoff", func(t *testing.T) {
		t.Parallel()
		sba := mean(t, 100, 18, cfg2, protocol.SBA)
		generic := mean(t, 100, 18, cfg2, gen(protocol.TimingBackoffRandom))
		// "Significantly outperforms": at least 25% fewer forward nodes in
		// dense networks.
		if generic > 0.75*sba {
			t.Errorf("Generic (%.2f) not significantly below SBA (%.2f)", generic, sba)
		}
	})

	t.Run("FloodingUpperBound", func(t *testing.T) {
		t.Parallel()
		flood := mean(t, 60, 6, cfg2, protocol.Flooding)
		if flood != 60 {
			t.Errorf("flooding mean %.2f != n", flood)
		}
	})
}

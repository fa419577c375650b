// Benchmarks regenerating the paper's evaluation: one benchmark per figure
// (Figures 9-16) and Table 1, each measuring the cost of one replication of
// the figure's headline data point (n = 100 unless stated) and reporting the
// observed forward-node count as a custom metric, plus micro-benchmarks for
// the coverage conditions (the cost discussion of Section 6), local-view
// construction, and workload generation.
//
// Run with:
//
//	go test -bench=. -benchmem
package adhocbcast_test

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"

	"adhocbcast/internal/cds"
	"adhocbcast/internal/cluster"
	"adhocbcast/internal/core"
	"adhocbcast/internal/experiments"
	"adhocbcast/internal/geo"
	"adhocbcast/internal/hello"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/stats"
	"adhocbcast/internal/view"
)

// benchNetwork memoizes generated workloads across benchmark iterations.
var benchNetworks = map[string]*geo.Network{}

func benchNetwork(b *testing.B, n int, d float64, seed int64) *geo.Network {
	b.Helper()
	key := fmt.Sprintf("%d|%g|%d", n, d, seed)
	if net, ok := benchNetworks[key]; ok {
		return net
	}
	net, err := geo.Generate(geo.Config{N: n, AvgDegree: d}, rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	benchNetworks[key] = net
	return net
}

// benchBroadcast runs one protocol repeatedly on the standard workload and
// reports forward nodes per broadcast.
func benchBroadcast(b *testing.B, mk func() sim.Protocol, cfg sim.Config, n int, d float64) {
	b.Helper()
	net := benchNetwork(b, n, d, 1)
	totalForward := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := sim.Run(net.G, i%n, mk(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.FullDelivery() {
			b.Fatalf("delivery %d/%d", res.Delivered, res.N)
		}
		totalForward += res.ForwardCount()
	}
	b.ReportMetric(float64(totalForward)/float64(b.N), "forward/op")
}

// BenchmarkFigure9SampleNetwork regenerates the Figure 9 sample scenario:
// one 100-node network, six broadcasts (three timings x two view depths).
func BenchmarkFigure9SampleNetwork(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewSample(100, 6, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10Timing measures the four timing policies of Figure 10.
func BenchmarkFigure10Timing(b *testing.B) {
	for _, t := range []protocol.Timing{
		protocol.TimingStatic,
		protocol.TimingFirstReceipt,
		protocol.TimingBackoffRandom,
		protocol.TimingBackoffDegree,
	} {
		t := t
		b.Run(t.String(), func(b *testing.B) {
			benchBroadcast(b, func() sim.Protocol { return protocol.Generic(t) },
				sim.Config{Hops: 2, Metric: view.MetricID}, 100, 6)
		})
	}
}

// BenchmarkFigure11Selection measures the four selection policies of
// Figure 11.
func BenchmarkFigure11Selection(b *testing.B) {
	variants := []struct {
		name string
		mk   func() sim.Protocol
	}{
		{name: "SP", mk: protocol.SelfPruningFR},
		{name: "ND", mk: protocol.NeighborDesignatingFR},
		{name: "MaxDeg", mk: protocol.HybridMaxDeg},
		{name: "MinPri", mk: protocol.HybridMinPri},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			benchBroadcast(b, v.mk, sim.Config{Hops: 2, Metric: view.MetricID}, 100, 6)
		})
	}
}

// BenchmarkFigure12Space measures the generic FR algorithm across view
// depths (Figure 12).
func BenchmarkFigure12Space(b *testing.B) {
	for _, hops := range []int{2, 3, 4, 5, 0} {
		hops := hops
		name := fmt.Sprintf("%dhop", hops)
		if hops == 0 {
			name = "global"
		}
		b.Run(name, func(b *testing.B) {
			benchBroadcast(b, func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) },
				sim.Config{Hops: hops, Metric: view.MetricID}, 100, 6)
		})
	}
}

// BenchmarkFigure13Priority measures the generic FR algorithm across
// priority metrics (Figure 13).
func BenchmarkFigure13Priority(b *testing.B) {
	for _, m := range []view.Metric{view.MetricID, view.MetricDegree, view.MetricNCR} {
		m := m
		b.Run(m.String(), func(b *testing.B) {
			benchBroadcast(b, func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) },
				sim.Config{Hops: 2, Metric: m}, 100, 6)
		})
	}
}

// BenchmarkFigure14Static measures the static special cases (Figure 14).
func BenchmarkFigure14Static(b *testing.B) {
	variants := []struct {
		name string
		mk   func() sim.Protocol
	}{
		{name: "MPR", mk: protocol.MPR},
		{name: "Span", mk: protocol.Span},
		{name: "RuleK", mk: protocol.RuleK},
		{name: "Generic", mk: func() sim.Protocol { return protocol.Generic(protocol.TimingStatic) }},
		{name: "WuLi", mk: protocol.WuLi},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			benchBroadcast(b, v.mk, sim.Config{Hops: 2, Metric: view.MetricNCR}, 100, 6)
		})
	}
}

// BenchmarkFigure15FirstReceipt measures the first-receipt special cases
// (Figure 15).
func BenchmarkFigure15FirstReceipt(b *testing.B) {
	variants := []struct {
		name string
		mk   func() sim.Protocol
	}{
		{name: "DP", mk: protocol.DP},
		{name: "PDP", mk: protocol.PDP},
		{name: "TDP", mk: protocol.TDP},
		{name: "LENWB", mk: protocol.LENWB},
		{name: "Generic", mk: func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			benchBroadcast(b, v.mk, sim.Config{Hops: 2, Metric: view.MetricDegree}, 100, 6)
		})
	}
}

// BenchmarkFigure16Backoff measures the first-receipt-with-backoff special
// cases (Figure 16).
func BenchmarkFigure16Backoff(b *testing.B) {
	variants := []struct {
		name string
		mk   func() sim.Protocol
	}{
		{name: "SBA", mk: protocol.SBA},
		{name: "Generic", mk: func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffRandom) }},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			benchBroadcast(b, v.mk, sim.Config{Hops: 2, Metric: view.MetricID}, 100, 6)
		})
	}
}

// BenchmarkTable1Classification measures one broadcast of each Table 1
// algorithm on the shared dense workload, grouped by category.
func BenchmarkTable1Classification(b *testing.B) {
	variants := []struct {
		name string
		mk   func() sim.Protocol
	}{
		{name: "Static/RuleK", mk: protocol.RuleK},
		{name: "Static/Span", mk: protocol.Span},
		{name: "Static/MPR", mk: protocol.MPR},
		{name: "FR/LENWB", mk: protocol.LENWB},
		{name: "FR/DP", mk: protocol.DP},
		{name: "FR/PDP", mk: protocol.PDP},
		{name: "FRB/SBA", mk: protocol.SBA},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			benchBroadcast(b, v.mk, sim.Config{Hops: 2, Metric: view.MetricID}, 100, 18)
		})
	}
}

// BenchmarkReplicationPoint measures one full Figure 10 data point — four
// variants, a fixed 16-replication budget — through the replication engine,
// serial and parallel. This is the replication-bound shape of a figure sweep:
// the four variants share workloads through the cache, and raising the worker
// count must leave the output bit-identical (asserted by the experiments
// package tests; here only the cost is measured).
func BenchmarkReplicationPoint(b *testing.B) {
	base := experiments.RunConfig{
		Sizes:       []int{60},
		Degrees:     []int{6},
		Replicate:   stats.ReplicateOptions{MinRuns: 16, MaxRuns: 16, RelTol: 1e-9},
		Seed:        12,
		Parallelism: 1,
	}
	for _, workers := range []int{1, 2, 4} {
		rc := base
		rc.ReplicateParallelism = workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var counters obsv.LiveCounters
			rc.Progress = func(point string, u stats.ProgressUpdate) {
				if !u.Exhausted {
					counters.AddReplicate()
				}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Figure10(rc); err != nil {
					b.Fatal(err)
				}
			}
			// Runs-to-converge metadata alongside ns/op.
			b.ReportMetric(float64(counters.Replicates())/float64(b.N), "replicates/op")
		})
	}
}

// BenchmarkMetricsOverhead measures the cost a live RunRecord adds to one
// broadcast: the Metrics hook sits on the per-receipt hot path, so the
// instrumented run should stay within noise of the plain one and add zero
// allocations beyond the record itself.
func BenchmarkMetricsOverhead(b *testing.B) {
	mk := func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }
	b.Run("plain", func(b *testing.B) {
		benchBroadcast(b, mk, sim.Config{Hops: 2, LossRate: 0.1}, 100, 18)
	})
	b.Run("instrumented", func(b *testing.B) {
		benchBroadcast(b, mk, sim.Config{Hops: 2, LossRate: 0.1, Metrics: obsv.NewRunRecord()}, 100, 18)
	})
}

// BenchmarkCoverageConditions measures the evaluation cost of the generic
// and strong conditions as density grows (the complexity discussion of
// Section 6). The paper's O(D^3) and O(D^2) are the bounds of the naive
// pair-by-pair procedures; core.Evaluator decides both on one neighbor
// bit-row kernel in O(|Nk| + D^2 + D·c·⌈D/64⌉) on 2-hop views, so the two
// cost the same order and grow about quadratically, the strong condition
// staying cheaper only because it skips the walks that feed adjacency rows
// alone and gives up at the first neighbor no single component reaches.
// Measured values are in EXPERIMENTS.md, "Complexity claims".
func BenchmarkCoverageConditions(b *testing.B) {
	for _, d := range []float64{6, 12, 18, 30} {
		net := benchNetwork(b, 100, d, 2)
		base := view.BasePriorities(net.G, view.MetricID)
		views := make([]*view.Local, net.G.N())
		for v := range views {
			views[v] = view.NewLocal(net.G, v, 2, base)
		}
		conditions := []struct {
			name string
			eval func(lv *view.Local) bool
		}{
			{name: "generic", eval: core.Covered},
			{name: "strong", eval: core.StrongCovered},
			{name: "span", eval: core.SpanCovered},
		}
		for _, c := range conditions {
			c := c
			b.Run(fmt.Sprintf("%s/d=%g", c.name, d), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.eval(views[i%len(views)])
				}
			})
		}
	}
}

// BenchmarkLocalViewConstruction measures Gk(v) extraction per view depth.
func BenchmarkLocalViewConstruction(b *testing.B) {
	net := benchNetwork(b, 100, 6, 3)
	base := view.BasePriorities(net.G, view.MetricID)
	for _, k := range []int{1, 2, 3, 5, 0} {
		k := k
		name := fmt.Sprintf("k=%d", k)
		if k == 0 {
			name = "global"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				view.NewLocal(net.G, i%100, k, base)
			}
		})
	}
}

// BenchmarkWorkloadGeneration measures the exact-link-count unit disk graph
// generator.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for _, n := range []int{20, 50, 100} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(4))
			for i := 0; i < b.N; i++ {
				if _, err := geo.Generate(geo.Config{N: n, AvgDegree: 6}, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTopologyBuild contrasts the reference full-sort generator
// (O(n^2 log n): every candidate link materialized and sorted) against the
// grid-indexed one (cell size = candidate range, 8-neighbor scan,
// guess-and-verify range selection) at large n. Both produce bit-identical
// networks (pinned by the geo golden and equivalence tests); only the cost
// may differ. The naive side stops at n=5000, where one build already takes
// seconds and hundreds of MB of candidate pairs.
func BenchmarkTopologyBuild(b *testing.B) {
	cases := []struct {
		n     int
		naive bool
	}{
		{n: 500, naive: true}, {n: 500},
		{n: 2000, naive: true}, {n: 2000},
		{n: 5000, naive: true}, {n: 5000},
		{n: 10000}, {n: 25000},
	}
	for _, c := range cases {
		c := c
		path := "grid"
		if c.naive {
			path = "naive"
		}
		b.Run(fmt.Sprintf("%s/n=%d", path, c.n), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(21))
			links := 0
			for i := 0; i < b.N; i++ {
				net, err := geo.Generate(geo.Config{N: c.n, AvgDegree: 18, Naive: c.naive}, rng)
				if err != nil {
					b.Fatal(err)
				}
				links = net.G.M()
			}
			b.ReportMetric(float64(links), "links/op")
		})
	}
}

// BenchmarkScalePoint measures one replicate of a large-n scale-sweep point:
// topology generation plus one broadcast of each scale variant (flooding and
// the generic Static/FR/FRB corners) on a 1000-node, d=18 network. This is
// the unit of work `cmd/experiments -scale` repeats.
func BenchmarkScalePoint(b *testing.B) {
	cfg := experiments.ScaleConfig{
		Sizes:       []int{1000},
		Degree:      18,
		Replicates:  1,
		Seed:        5,
		Parallelism: 1,
	}
	b.ReportAllocs()
	forward := 0.0
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Scale(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Variant == "Generic-FR" {
				forward = r.Forward
			}
			if r.Delivery != 100 {
				b.Fatalf("%s delivered %v%%", r.Variant, r.Delivery)
			}
		}
	}
	b.ReportMetric(forward, "fwdpct/op")
}

// BenchmarkLoadPoint measures one replicate of a saturation-sweep point at
// the knee load (0.1 sessions/slot, n=100, d=6): workload generation plus a
// multi-session contention-MAC run of each load variant, including the NACK
// one. This is the unit of work `cmd/experiments -ext load` repeats; the
// end-to-end sweep is the bench/ ledger's load_knee workload.
func BenchmarkLoadPoint(b *testing.B) {
	cfg := experiments.LoadConfig{
		Rates:       []float64{0.1},
		Replicates:  1,
		Seed:        5,
		Parallelism: 1,
	}
	b.ReportAllocs()
	delivery := 0.0
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Load(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Variant == "Generic-FRB+NACK" {
				delivery = r.Delivery
			}
		}
	}
	b.ReportMetric(delivery, "delivpct/op")
}

// peakRSSMB reports the process's peak resident set in MB (getrusage Maxrss,
// which Linux reports in KB). It only ever grows, so in a multi-benchmark run
// the number belongs to the largest workload measured so far — which is why
// only the scale benchmarks report it.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// BenchmarkScaleEngine measures one broadcast at the scale-sweep extremes —
// n=100,000 and n=1,000,000 at d=18 — through the fast engine with a reused
// arena, reporting the process's peak resident set alongside ns/op. One
// iteration is a complete Generic-FR broadcast reaching every node; topology
// generation is memoized outside the timer, and the arena's view cache makes
// iterations after the first measure the steady-state engine cost, which is
// exactly the regime the million-node sweep runs in. The n=1M case is skipped
// in -short runs (CI benchmark smoke).
func BenchmarkScaleEngine(b *testing.B) {
	for _, n := range []int{100000, 1000000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if n > 100000 && testing.Short() {
				b.Skip("skipping n=1M in -short mode")
			}
			net := benchNetwork(b, n, 18, 13)
			arena := sim.NewArena()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sim.RunWith(arena, net.G, i%n,
					protocol.Generic(protocol.TimingFirstReceipt),
					sim.Config{Hops: 2, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				if !res.FullDelivery() {
					b.Fatalf("delivery %d/%d", res.Delivered, res.N)
				}
			}
			b.StopTimer()
			b.ReportMetric(peakRSSMB(), "peakRSS-MB")
		})
	}
}

// BenchmarkMaxMinPath measures the MAX_MIN maximal-replacement-path
// construction.
func BenchmarkMaxMinPath(b *testing.B) {
	net := benchNetwork(b, 100, 6, 5)
	base := view.BasePriorities(net.G, view.MetricID)
	type job struct {
		lv   *view.Local
		u, w int
	}
	var jobs []job
	for v := 0; v < net.G.N(); v++ {
		lv := view.NewLocal(net.G, v, 3, base)
		nbrs := lv.Neighbors()
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				jobs = append(jobs, job{lv: lv, u: nbrs[i], w: nbrs[j]})
			}
		}
	}
	if len(jobs) == 0 {
		b.Skip("no neighbor pairs")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := jobs[i%len(jobs)]
		core.MaxMinPath(j.lv, j.u, j.w)
	}
}

// BenchmarkGraphPrimitives covers the substrate hot paths.
func BenchmarkGraphPrimitives(b *testing.B) {
	net := benchNetwork(b, 100, 18, 6)
	b.Run("HasEdge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net.G.HasEdge(i%100, (i*7)%100)
		}
	})
	b.Run("BFSDistances", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net.G.BFSDistances(i % 100)
		}
	})
	b.Run("NCR", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			view.NCR(net.G, i%100)
		}
	})
}

// BenchmarkHelloRounds measures the hello-message discovery layer: the cost
// of assembling k-hop information for the whole network.
func BenchmarkHelloRounds(b *testing.B) {
	net := benchNetwork(b, 100, 6, 8)
	for _, k := range []int{1, 2, 3} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := hello.New(net.G)
				p.RunRounds(k)
			}
		})
	}
}

// BenchmarkCDS measures the backbone constructions: Wu-Li marking, the
// Guha-Khuller greedy, and the coverage-condition reduction.
func BenchmarkCDS(b *testing.B) {
	net := benchNetwork(b, 100, 6, 9)
	b.Run("MarkingProcess", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cds.MarkingProcess(net.G)
		}
	})
	b.Run("GuhaKhuller", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cds.GuhaKhuller(net.G); err != nil {
				b.Fatal(err)
			}
		}
	})
	marked := cds.MarkingProcess(net.G)
	b.Run("Reduce", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cds.Reduce(net.G, marked)
		}
	})
}

// BenchmarkClustering measures lowest-id clustering and its backbone
// extraction on a dense network.
func BenchmarkClustering(b *testing.B) {
	net := benchNetwork(b, 100, 18, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cluster.LowestID(net.G)
		c.Backbone(net.G)
	}
}

// BenchmarkUnreliableMAC contrasts the simulator's fast path against the
// collision-batched loop.
func BenchmarkUnreliableMAC(b *testing.B) {
	configs := []struct {
		name string
		cfg  sim.Config
	}{
		{name: "clean", cfg: sim.Config{Hops: 2}},
		{name: "loss", cfg: sim.Config{Hops: 2, LossRate: 0.1}},
		{name: "collisions+jitter", cfg: sim.Config{Hops: 2, Collisions: true, TxJitter: 1}},
	}
	net := benchNetwork(b, 100, 6, 11)
	for _, c := range configs {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := c.cfg
				cfg.Seed = int64(i + 1)
				if _, err := sim.Run(net.G, i%100, protocol.Flooding(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGreedyCover measures the DP/MPR greedy set-cover heuristic.
func BenchmarkGreedyCover(b *testing.B) {
	net := benchNetwork(b, 100, 18, 7)
	base := view.BasePriorities(net.G, view.MetricID)
	views := make([]*view.Local, net.G.N())
	for v := range views {
		views[v] = view.NewLocal(net.G, v, 2, base)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lv := views[i%len(views)]
		protocol.GreedyCover(lv, lv.Neighbors(), lv.TwoHopTargets())
	}
}

// The two microbenchmarks behind the paper's complexity claims: the cost of
// the coverage conditions (the discussion of Section 6) and of the MAX_MIN
// maximal-replacement-path procedure. Measured values are in EXPERIMENTS.md,
// "Complexity claims". Everything end to end — figures, scale, load, grid,
// live fleets — is measured by the performance ledger instead (bench/).
//
// Run with:
//
//	go test -run '^$' -bench . -benchmem .
package adhocbcast_test

import (
	"fmt"
	"math/rand"
	"testing"

	"adhocbcast/internal/core"
	"adhocbcast/internal/geo"
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
		ev := core.NewEvaluator(net.G.N()) // one scratch set, as a run holds
		conditions := []struct {
			name string
			eval func(lv *view.Local) bool
		}{
			{name: "generic", eval: ev.Covered},
			{name: "strong", eval: ev.StrongCovered},
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

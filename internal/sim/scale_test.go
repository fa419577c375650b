package sim_test

import (
	"math/rand"
	"runtime"
	"testing"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/view"
)

// TestLargeNetworkBroadcast checks the stack well beyond the paper's n=100
// evaluation sizes: generation, view construction, and a full broadcast on a
// 400-node network must stay correct (and fast enough to live in the unit
// test suite).
func TestLargeNetworkBroadcast(t *testing.T) {
	if testing.Short() {
		t.Skip("large-network scalability check")
	}
	rng := rand.New(rand.NewSource(404))
	net, err := geo.Generate(geo.Config{N: 400, AvgDegree: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []func() sim.Protocol{
		func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) },
		protocol.PDP,
		protocol.SBA,
	} {
		p := mk()
		res, err := sim.Run(net.G, 0, p, sim.Config{
			Hops:   2,
			Metric: view.MetricDegree,
			Seed:   1,
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if !res.FullDelivery() {
			t.Fatalf("%s: delivered %d/%d", p.Name(), res.Delivered, res.N)
		}
		if res.ForwardCount() >= 400 {
			t.Fatalf("%s: no pruning at scale (%d forwards)", p.Name(), res.ForwardCount())
		}
		t.Logf("%s: %d of 400 forwarded", p.Name(), res.ForwardCount())
	}
}

// TestWarmRunAllocatesPerForwardNotPerReceipt pins the zero-bytes-per-receipt
// layout: on a warm Arena a broadcast allocates for what it transmits (a trail
// per forward, the forward list) plus a fixed per-run part, never for what it
// delivers. A forward at d=18 delivers three times the copies of one at d=6;
// it must not allocate three times the bytes.
func TestWarmRunAllocatesPerForwardNotPerReceipt(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates per delivery")
	}
	perForward := map[float64]float64{}
	perReceipt := map[float64]float64{}
	for _, d := range []float64{12, 36} {
		net, err := geo.Generate(geo.Config{N: 2000, AvgDegree: d}, rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatal(err)
		}
		arena := sim.NewArena()
		run := func(source int) sim.Result {
			res, err := sim.RunWith(arena, net.G, source, protocol.Generic(protocol.TimingFirstReceipt),
				sim.Config{Hops: 2, Seed: int64(source) + 1})
			if err != nil || !res.FullDelivery() {
				t.Fatalf("d=%v source %d: err %v, delivered %d/%d", d, source, err, res.Delivered, res.N)
			}
			return res
		}
		run(0) // cold: builds views, sizes the queue, fills the packet slab
		var before, after runtime.MemStats
		forwards, receipts := 0, 0
		runtime.ReadMemStats(&before)
		for source := 1; source <= 4; source++ {
			res := run(source * 400)
			forwards += res.ForwardCount()
			receipts += res.Receipts
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc - before.TotalAlloc)
		perForward[d], perReceipt[d] = bytes/float64(forwards), float64(receipts)/float64(forwards)
		t.Logf("d=%v: %.0f B per forward, %.1f receipts per forward (%d forwards, %d receipts in 4 warm runs)",
			d, perForward[d], perReceipt[d], forwards, receipts)
		if perForward[d] > 256 {
			t.Errorf("d=%v: warm runs allocate %.0f B per forward, budget 256 (one trail, one forward-list slot, the per-run fixed part)",
				d, perForward[d])
		}
	}
	if perReceipt[36] < 2.5*perReceipt[12] {
		t.Fatalf("workload drifted: %.1f receipts per forward at d=36, %.1f at d=12", perReceipt[36], perReceipt[12])
	}
	if perForward[36] > 1.5*perForward[12] {
		t.Errorf("bytes per forward grow with the receipt count: %.0f B at d=36 vs %.0f B at d=12", perForward[36], perForward[12])
	}
}

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

// TestWarmRunSetUpCostsNothingPerNode pins what a replicate of a paper figure
// costs to start on a pooled Arena: a Generic-FR broadcast (which draws from
// no random stream) over a topology the Arena has not seen, at n = 100 and
// n = 400, d = 6. Bytes per run must split into a per-forward part (a trail,
// the forward list) and a set-up part that does not grow with n and is a
// fraction of one seeded math/rand source (4.9 KB) — so no stream was seeded,
// and neither views, node states, queue nor priorities were allocated.
func TestWarmRunSetUpCostsNothingPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates per delivery")
	}
	perRun := map[int][2]float64{} // n -> bytes, forwards per run
	for _, n := range []int{100, 400} {
		var nets []*geo.Network
		for i := 0; i < 6; i++ {
			net, err := geo.Generate(geo.Config{N: n, AvgDegree: 6}, rand.New(rand.NewSource(int64(n+i))))
			if err != nil {
				t.Fatal(err)
			}
			nets = append(nets, net)
		}
		arena := sim.NewArena()
		pass := func() (forwards int) {
			for i, net := range nets {
				res, err := sim.RunWith(arena, net.G, i, protocol.Generic(protocol.TimingFirstReceipt), sim.Config{Hops: 2, Seed: int64(i) + 1})
				if err != nil || !res.FullDelivery() {
					t.Fatalf("n=%d net %d: err %v, delivered %d/%d", n, i, err, res.Delivered, res.N)
				}
				forwards += res.ForwardCount()
			}
			return forwards
		}
		pass() // cold: sizes every slab to the largest of the six
		pass() // and once more: views pack differently into chunks cut for another topology
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		forwards := pass()
		runtime.ReadMemStats(&after)
		runs := float64(len(nets))
		perRun[n] = [2]float64{float64(after.TotalAlloc-before.TotalAlloc) / runs, float64(forwards) / runs}
		t.Logf("n=%d: %.0f B and %.1f allocations per run, %.1f forwards per run",
			n, perRun[n][0], float64(after.Mallocs-before.Mallocs)/runs, perRun[n][1])
	}
	small, large := perRun[100], perRun[400]
	perForward := (large[0] - small[0]) / (large[1] - small[1])
	setUp := small[0] - perForward*small[1]
	t.Logf("%.0f B per forward + %.0f B of set-up per run", perForward, setUp)
	if perForward > 256 {
		t.Errorf("warm runs allocate %.0f B per forward, budget 256", perForward)
	}
	if setUp > 2048 {
		t.Errorf("a warm run's set-up allocates %.0f B whatever it forwards, budget 2048: something is built per run again (a seeded rand source is 4.9 KB)", setUp)
	}
	if small[0] > 4864+small[1]*256 {
		t.Errorf("a warm n=100 run allocates %.0f B: room for a seeded rand source on top of %.0f forwards", small[0], small[1])
	}
}

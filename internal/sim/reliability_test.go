package sim_test

import (
	"math/rand"
	"testing"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

func TestDeliveryRatio(t *testing.T) {
	r := sim.Result{Delivered: 3, N: 4}
	if got := r.DeliveryRatio(); got != 0.75 {
		t.Fatalf("DeliveryRatio = %v", got)
	}
	if (sim.Result{}).DeliveryRatio() != 0 {
		t.Fatal("empty result ratio not 0")
	}
}

func TestLossModelDropsReceipts(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	net, err := geo.Generate(geo.Config{N: 50, AvgDegree: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := sim.Run(net.G, 0, protocol.Flooding(), sim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Lost != 0 || clean.Collided != 0 {
		t.Fatalf("clean run reported losses: %+v", clean)
	}
	if clean.Receipts == 0 {
		t.Fatal("clean run recorded no receipts")
	}
	lossy, err := sim.Run(net.G, 0, protocol.Flooding(), sim.Config{Seed: 1, LossRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Lost == 0 {
		t.Fatal("lossy run dropped nothing")
	}
	if lossy.Receipts >= clean.Receipts {
		t.Fatalf("lossy receipts %d >= clean receipts %d", lossy.Receipts, clean.Receipts)
	}
}

func TestLossRateOneOnlySourceTransmits(t *testing.T) {
	g := pathGraph(t, 4)
	res, err := sim.Run(g, 0, protocol.Flooding(), sim.Config{Seed: 1, LossRate: 0.999999})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 {
		t.Fatalf("delivered = %d, want only the source", res.Delivered)
	}
	if res.ForwardCount() != 1 {
		t.Fatalf("forward count = %d", res.ForwardCount())
	}
}

func TestCollisionsOnSynchronizedWave(t *testing.T) {
	// Diamond: 0-{1,2}-3. Under flooding without jitter, nodes 1 and 2
	// both retransmit at t=1 and their copies collide at node 3 at t=2.
	g := mkG(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	res, err := sim.Run(g, 0, protocol.Flooding(), sim.Config{Collisions: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 3 {
		t.Fatalf("delivered = %d, want 3 (node 3's copies collide)", res.Delivered)
	}
	// Four collided copies: the pair at node 3 and the harmless echo pair
	// back at the source.
	if res.Collided != 4 {
		t.Fatalf("collided = %d, want 4", res.Collided)
	}
}

func TestJitterRelievesCollisions(t *testing.T) {
	// The ref [7] claim: a small forwarding jitter desynchronizes the
	// retransmission wave and restores delivery.
	g := mkG(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	res, err := sim.Run(g, 0, protocol.Flooding(), sim.Config{
		Collisions: true,
		TxJitter:   0.5,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullDelivery() {
		t.Fatalf("delivered %d/%d with jitter", res.Delivered, res.N)
	}
	if res.Collided != 0 {
		t.Fatalf("collided = %d with jitter on a diamond", res.Collided)
	}
}

func TestCollisionsStatistical(t *testing.T) {
	// On a random network, collision-mode flooding without jitter must
	// deliver to strictly fewer nodes than with jitter (averaged over
	// seeds), and pruning protocols — having fewer simultaneous
	// transmitters — must collide less than flooding.
	rng := rand.New(rand.NewSource(71))
	net, err := geo.Generate(geo.Config{N: 80, AvgDegree: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var floodNoJitter, floodJitter, genericNoJitter float64
	var floodCollisions, genericCollisions int
	const runs = 20
	for i := 0; i < runs; i++ {
		seed := int64(i + 1)
		a, err := sim.Run(net.G, i%80, protocol.Flooding(), sim.Config{Collisions: true, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		b, err := sim.Run(net.G, i%80, protocol.Flooding(), sim.Config{Collisions: true, TxJitter: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		c, err := sim.Run(net.G, i%80, protocol.Generic(protocol.TimingFirstReceipt),
			sim.Config{Hops: 2, Collisions: true, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		floodNoJitter += a.DeliveryRatio()
		floodJitter += b.DeliveryRatio()
		genericNoJitter += c.DeliveryRatio()
		floodCollisions += a.Collided
		genericCollisions += c.Collided
	}
	if floodJitter <= floodNoJitter {
		t.Fatalf("jitter did not improve flooding delivery: %.3f vs %.3f",
			floodJitter/runs, floodNoJitter/runs)
	}
	if genericCollisions >= floodCollisions {
		t.Fatalf("pruning collided as much as flooding: %d vs %d",
			genericCollisions, floodCollisions)
	}
}

func TestUnreliableModesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	net, err := geo.Generate(geo.Config{N: 40, AvgDegree: 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Hops: 2, LossRate: 0.2, Collisions: true, TxJitter: 0.5, Seed: 5}
	a, err := sim.Run(net.G, 1, protocol.SBA(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(net.G, 1, protocol.SBA(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Delivered != b.Delivered || a.Lost != b.Lost || a.Collided != b.Collided {
		t.Fatalf("unreliable runs not reproducible: %+v vs %+v", a, b)
	}
}

func mkG(t *testing.T, n int, edges [][2]int) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
